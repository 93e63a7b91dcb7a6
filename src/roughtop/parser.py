"""Parser and serializer for the structure-description text format.

The format is line oriented.  `#` starts a comment anywhere on a line;
blank lines are ignored; tokens never contain whitespace.  Declarations:

    universe <name>: tok tok ...
    table <name> on <universe>:        (followed by n lines of n tokens;
                                        the row for x lists x*y per column y)
    partition <name> on <universe>: {tok ...} {tok ...} ...
    subset <name> of <universe>: tok ...
    topology <name> on <carrier>: {} {tok ...} ...
    map <name> from <set> to <set>: tok->tok tok->tok ...

A <carrier> or map endpoint names a declared subset, or a universe
(standing for all of its elements).  The empty set is written `{}`, and
a topology must list its carrier among the opens.  Pair element names
like `(a,b)` are ordinary tokens.  Every error carries the 1-based line
and column it was detected at.
"""

from __future__ import annotations

import re

from .approx import Partition, Universe
from .errors import InputError, ParseError
from .groups import CayleyTable
from .record import Record
from .topology import FiniteMap, FiniteTopology

_BRACE_RE = re.compile(r"\{([^{}]*)\}")
_TOKEN_RE = re.compile(r"\S+")


class Workspace(Record):
    """Symbol table of parsed declarations, one namespace per kind.

    Values keep the referenced names alongside the built objects so a
    workspace serializes back to an equivalent document.  Unlike the
    other records it is mutable, and so unhashable.
    """

    _fields = ("universes", "tables", "partitions", "subsets", "topologies", "maps")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, universes=None, tables=None, partitions=None, subsets=None,
                 topologies=None, maps=None):
        self.universes: dict[str, Universe] = {} if universes is None else universes
        self.tables: dict[str, tuple[str, CayleyTable]] = {} if tables is None else tables
        self.partitions: dict[str, tuple[str, Partition]] = (
            {} if partitions is None else partitions)
        self.subsets: dict[str, tuple[str, int]] = {} if subsets is None else subsets
        self.topologies: dict[str, tuple[str, FiniteTopology]] = (
            {} if topologies is None else topologies)
        self.maps: dict[str, tuple[str, str, FiniteMap]] = {} if maps is None else maps

    def universe(self, name: str) -> Universe:
        if name not in self.universes:
            raise InputError(f"unknown universe {name!r}")
        return self.universes[name]

    def table(self, name: str) -> tuple[str, CayleyTable]:
        if name not in self.tables:
            raise InputError(f"unknown table {name!r}")
        return self.tables[name]

    def partition(self, name: str) -> tuple[str, Partition]:
        if name not in self.partitions:
            raise InputError(f"unknown partition {name!r}")
        return self.partitions[name]

    def set_ref(self, name: str) -> tuple[str, Universe, int]:
        """Resolve a subset name, or a universe name as its full set."""
        if name in self.subsets:
            uname, mask = self.subsets[name]
            return uname, self.universes[uname], mask
        if name in self.universes:
            u = self.universes[name]
            return name, u, u.all_mask
        raise InputError(f"unknown subset or universe {name!r}")

    def topology(self, name: str) -> tuple[str, FiniteTopology]:
        if name not in self.topologies:
            raise InputError(f"unknown topology {name!r}")
        return self.topologies[name]

    def map(self, name: str) -> tuple[str, str, FiniteMap]:
        if name not in self.maps:
            raise InputError(f"unknown map {name!r}")
        return self.maps[name]


def _tokens(text: str, offset: int) -> list[tuple[str, int]]:
    """Whitespace-separated tokens of a line fragment starting at
    `offset`, each with its 1-based column on the line."""
    return [(m.group(), offset + m.start() + 1) for m in _TOKEN_RE.finditer(text)]


def _element(universe: Universe, uname: str, tok: str,
             lineno: int, col: int) -> int:
    try:
        return universe.index(tok)
    except InputError:
        raise ParseError(f"unknown element {tok!r} in universe {uname}",
                         lineno, col) from None


def _elements(universe: Universe, uname: str, text: str, offset: int,
              lineno: int) -> list[int]:
    """Element indices of the tokens of a line fragment starting at
    `offset`; columns are worked out only to name an unknown token."""
    try:
        return [universe.index(tok) for tok in text.split()]
    except InputError:
        # raises at the first unknown token
        return [_element(universe, uname, tok, lineno, col)
                for tok, col in _tokens(text, offset)]


def _brace_groups(tail: str, offset: int, lineno: int) -> list[tuple[str, int]]:
    """The text inside each pair of braces and its offset on the line."""
    groups = list(_BRACE_RE.finditer(tail))
    if tail.count("{") != len(groups) or tail.count("}") != len(groups):
        at = tail.find("{")
        raise ParseError("unbalanced braces", lineno,
                         offset + at + 1 if at >= 0 else 1)
    if _BRACE_RE.sub("", tail).split():
        blanked = _BRACE_RE.sub(lambda m: " " * len(m.group()), tail)
        tok, col = _tokens(blanked, offset)[0]
        raise ParseError(f"unexpected text {tok!r} outside braces", lineno, col)
    return [(m.group(1), offset + m.start(1)) for m in groups]


def _split_header(content: str, lineno: int,
                  raw: str) -> tuple[list[str], str, str, int]:
    """Header words, the header text, the text after the colon, and the
    offset of that text on the line."""
    head, colon, tail = content.partition(":")
    if not colon:
        raise ParseError("missing ':' after the declaration header",
                         lineno, len(raw.rstrip()) + 1)
    return head.split(), head, tail, len(head) + 1


def _word_col(head: str, at: int) -> int:
    """Column of the header word at index `at`."""
    return _tokens(head, 0)[at][1]


def _expect_keyword(words: list[str], head: str, at: int, word: str,
                    lineno: int) -> None:
    if len(words) <= at or words[at] != word:
        got = words[at] if len(words) > at else "end of header"
        raise ParseError(f"expected {word!r}, got {got!r}",
                         lineno, _word_col(head, at) if len(words) > at else 1)


def _check_fresh(kind: str, name: str, existing, lineno: int, head: str) -> None:
    if name in existing:
        raise ParseError(f"duplicate {kind} name {name!r}",
                         lineno, _word_col(head, 1))


def parse_spec(text: str) -> Workspace:
    """Parse a document into a workspace, resolving every reference."""
    ws = Workspace()
    items: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        content = raw.split("#", 1)[0]
        if content.strip():
            items.append((lineno, raw, content))
    pos = 0
    while pos < len(items):
        lineno, raw, content = items[pos]
        pos += 1
        head, head_text, tail, off = _split_header(content, lineno, raw)
        if not head:
            raise ParseError("empty declaration header", lineno, 1)
        kind = head[0]
        if kind == "universe":
            if len(head) != 2:
                raise ParseError("expected 'universe <name>:'", lineno, 1)
            name = head[1]
            _check_fresh("universe", name, ws.universes, lineno, head_text)
            try:
                ws.universes[name] = Universe(tuple(tail.split()))
            except InputError as e:
                raise ParseError(str(e), lineno, 1) from None
        elif kind == "table":
            if len(head) != 4:
                raise ParseError("expected 'table <name> on <universe>:'",
                                 lineno, 1)
            name = head[1]
            _expect_keyword(head, head_text, 2, "on", lineno)
            _check_fresh("table", name, ws.tables, lineno, head_text)
            uname = head[3]
            if uname not in ws.universes:
                raise ParseError(f"unknown universe {uname!r}",
                                 lineno, _word_col(head_text, 3))
            if tail.split():
                raise ParseError("table rows belong on the following lines",
                                 lineno, _tokens(tail, off)[0][1])
            u = ws.universes[uname]
            n = u.size
            if pos + n > len(items):
                raise ParseError(
                    f"table {name!r} needs {n} rows, found {len(items) - pos}",
                    lineno, 1,
                )
            rows = []
            for r in range(n):
                row_lineno, _, row_content = items[pos]
                pos += 1
                entries = len(row_content.split())
                if entries != n:
                    raise ParseError(
                        f"table row has {entries} entries, expected {n}",
                        row_lineno, 1,
                    )
                rows.append(tuple(_elements(u, uname, row_content, 0, row_lineno)))
            ws.tables[name] = (uname, CayleyTable(u, tuple(rows)))
        elif kind == "partition":
            if len(head) != 4:
                raise ParseError("expected 'partition <name> on <universe>:'",
                                 lineno, 1)
            name = head[1]
            _expect_keyword(head, head_text, 2, "on", lineno)
            _check_fresh("partition", name, ws.partitions, lineno, head_text)
            uname = head[3]
            if uname not in ws.universes:
                raise ParseError(f"unknown universe {uname!r}",
                                 lineno, _word_col(head_text, 3))
            u = ws.universes[uname]
            blocks = []
            for group, at in _brace_groups(tail, off, lineno):
                mask = 0
                for i in _elements(u, uname, group, at, lineno):
                    mask |= 1 << i
                blocks.append(mask)
            try:
                ws.partitions[name] = (uname, Partition(u, tuple(blocks)))
            except InputError as e:
                raise ParseError(str(e), lineno, 1) from None
        elif kind == "subset":
            if len(head) != 4:
                raise ParseError("expected 'subset <name> of <universe>:'",
                                 lineno, 1)
            name = head[1]
            _expect_keyword(head, head_text, 2, "of", lineno)
            _check_fresh("subset", name, ws.subsets, lineno, head_text)
            uname = head[3]
            if uname not in ws.universes:
                raise ParseError(f"unknown universe {uname!r}",
                                 lineno, _word_col(head_text, 3))
            u = ws.universes[uname]
            mask = 0
            for i in _elements(u, uname, tail, off, lineno):
                mask |= 1 << i
            ws.subsets[name] = (uname, mask)
        elif kind == "topology":
            if len(head) != 4:
                raise ParseError("expected 'topology <name> on <carrier>:'",
                                 lineno, 1)
            name = head[1]
            _expect_keyword(head, head_text, 2, "on", lineno)
            _check_fresh("topology", name, ws.topologies, lineno, head_text)
            cname = head[3]
            try:
                uname, u, carrier = ws.set_ref(cname)
            except InputError as e:
                raise ParseError(str(e), lineno, _word_col(head_text, 3)) from None
            family = []
            for group, at in _brace_groups(tail, off, lineno):
                mask = 0
                for i in _elements(u, uname, group, at, lineno):
                    mask |= 1 << i
                if mask & ~carrier:
                    tok, col = next((tok, col) for tok, col in _tokens(group, at)
                                    if not carrier >> u.index(tok) & 1)
                    raise ParseError(
                        f"family member {u.set_str(mask)} is not a subset of the "
                        f"carrier {u.set_str(carrier)}: {tok!r} lies outside it",
                        lineno, col)
                family.append(mask)
            try:
                ws.topologies[name] = (
                    cname, FiniteTopology.from_family(u, carrier, family)
                )
            except InputError as e:
                raise ParseError(str(e), lineno, 1) from None
        elif kind == "map":
            if len(head) != 6:
                raise ParseError("expected 'map <name> from <set> to <set>:'",
                                 lineno, 1)
            name = head[1]
            _expect_keyword(head, head_text, 2, "from", lineno)
            _expect_keyword(head, head_text, 4, "to", lineno)
            _check_fresh("map", name, ws.maps, lineno, head_text)
            aname, bname = head[3], head[5]
            try:
                a_uname, au, amask = ws.set_ref(aname)
            except InputError as e:
                raise ParseError(str(e), lineno, _word_col(head_text, 3)) from None
            try:
                b_uname, bu, bmask = ws.set_ref(bname)
            except InputError as e:
                raise ParseError(str(e), lineno, _word_col(head_text, 5)) from None
            pairs = []
            seen = 0
            for tok, col in _tokens(tail, off):
                parts = tok.split("->")
                if len(parts) != 2 or not parts[0] or not parts[1]:
                    raise ParseError(
                        f"expected 'src->dst', got {tok!r}", lineno, col)
                src = _element(au, a_uname, parts[0], lineno, col)
                if not amask >> src & 1:
                    raise ParseError(f"map assigns {parts[0]!r}, which lies outside "
                                     f"its domain {aname}", lineno, col)
                if seen >> src & 1:
                    raise ParseError(f"map assigns {parts[0]!r} twice", lineno, col)
                seen |= 1 << src
                dst_col = col + len(parts[0]) + 2
                dst = _element(bu, b_uname, parts[1], lineno, dst_col)
                if not bmask >> dst & 1:
                    raise ParseError(f"map sends {parts[0]!r} to {parts[1]!r}, which "
                                     f"lies outside its codomain {bname}", lineno, dst_col)
                pairs.append((src, dst))
            try:
                ws.maps[name] = (
                    aname, bname, FiniteMap(au, bu, amask, bmask, tuple(pairs))
                )
            except InputError as e:
                raise ParseError(str(e), lineno, 1) from None
        else:
            raise ParseError(f"unknown declaration kind {kind!r}",
                             lineno, _word_col(head_text, 0))
    return ws


def serialize_workspace(ws: Workspace) -> str:
    """Canonical text form: kinds grouped, sets in canonical order.

    Parsing the output yields a workspace equal to the original, and
    serializing again reproduces the same bytes.
    """
    out = []
    for name, u in ws.universes.items():
        out.append(f"universe {name}: " + " ".join(u.elements))
    for name, (uname, t) in ws.tables.items():
        out.append(f"table {name} on {uname}:")
        for row in t.rows:
            out.append(" ".join(t.universe.elements[v] for v in row))
    for name, (uname, p) in ws.partitions.items():
        groups = " ".join(
            "{" + " ".join(p.universe.names_of(b)) + "}" for b in p.blocks
        )
        out.append(f"partition {name} on {uname}: {groups}")
    for name, (uname, mask) in ws.subsets.items():
        u = ws.universes[uname]
        toks = " ".join(u.names_of(mask))
        out.append(f"subset {name} of {uname}:" + (f" {toks}" if toks else ""))
    for name, (cname, top) in ws.topologies.items():
        groups = " ".join(
            "{" + " ".join(top.universe.names_of(o)) + "}" for o in top.opens
        )
        out.append(f"topology {name} on {cname}: {groups}")
    for name, (aname, bname, m) in ws.maps.items():
        pairs = " ".join(
            f"{m.domain_universe.elements[s]}->{m.codomain_universe.elements[d]}"
            for s, d in m.pairs
        )
        out.append(f"map {name} from {aname} to {bname}:" +
                   (f" {pairs}" if pairs else ""))
    return "\n".join(out) + "\n"
