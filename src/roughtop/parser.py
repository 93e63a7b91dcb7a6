"""Parser for the structure-description text format.

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
like `(a,b)` are ordinary tokens; a name holds no brace, may hold a
comma only inside parentheses, and its parentheses must balance.
Every error carries the 1-based line and column it was detected at.

The table `_DECLARATIONS` is the single source of these headers: it
gives each kind's header, its Workspace namespace and the builder of
its body, and `parse_spec` checks every header the same way from it.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import accumulate, islice
from operator import or_

from .approx import CayleyTable, Partition, Universe
from .errors import InputError, ParseError
from .topology import FiniteMap, verify_topology

_BRACE_RE = re.compile(r"\{([^{}]*)\}")
_STRAY_BRACE_RE = re.compile(r"[{}]")
_BRACE_LIST_RE = re.compile(r"\s*(?:\{[^{}]*\}\s*)*")
_TOKEN_RE = re.compile(r"\S+")
_NAME_PUNCT_RE = re.compile(r"[(),{}]")
_NAME_GROUP_RE = re.compile(r"\([^(){}\s]*\)")  # an innermost group inside one name


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


def _unknown(universe: Universe, uname: str, text: str, offset: int,
             lineno: int) -> None:
    """Raise ParseError at the first token of a line fragment starting
    at `offset` that names no element; columns are worked out only here,
    once a fast path has met an unknown name."""
    for tok, col in _tokens(text, offset):
        _element(universe, uname, tok, lineno, col)


def _mask(universe: Universe, uname: str, text: str, offset: int,
          lineno: int) -> int:
    """The set of elements the tokens of a line fragment name, as a bitmask."""
    try:
        return universe.mask_of(text.split())
    except InputError:
        _unknown(universe, uname, text, offset, lineno)
        raise


def _brace_groups(tail: str, offset: int, lineno: int) -> list[tuple[str, int]]:
    """The text inside each pair of braces and its offset on the line.
    An error names the first brace, or else the first token, left over
    once every well-formed group is blanked out."""
    groups = list(_BRACE_RE.finditer(tail))
    blanked = _BRACE_RE.sub(lambda m: " " * len(m.group()), tail)
    stray = _STRAY_BRACE_RE.search(blanked)
    if stray:
        raise ParseError("unbalanced braces", lineno, offset + stray.start() + 1)
    if blanked.split():
        tok, col = _tokens(blanked, offset)[0]
        raise ParseError(f"unexpected text {tok!r} outside braces", lineno, col)
    return [(m.group(1), offset + m.start(1)) for m in groups]


def _brace_masks(universe: Universe, uname: str, tail: str, offset: int,
                 lineno: int, carrier: int) -> list[int]:
    """The set each pair of braces of a line fragment names, as a
    bitmask, every one inside `carrier`.  Columns are worked out only to
    name an error: on any miss the fragment is read again, brace by
    brace and token by token (`_brace_masks_at`), which raises there."""
    if _BRACE_LIST_RE.fullmatch(tail):
        try:
            masks = [universe.mask_of(group.split())
                     for group in _BRACE_RE.findall(tail)]
        except InputError:
            pass
        else:
            if not reduce(or_, masks, 0) & ~carrier:
                return masks
    return _brace_masks_at(universe, uname, tail, offset, lineno, carrier)


def _brace_masks_at(universe: Universe, uname: str, tail: str, offset: int,
                    lineno: int, carrier: int) -> list[int]:
    """`_brace_masks` read with the column of every brace and token, so
    that it raises ParseError at the first error on the line."""
    masks = []
    for group, at in _brace_groups(tail, offset, lineno):
        mask = _mask(universe, uname, group, at, lineno)
        if mask & ~carrier:
            tok, col = next((tok, col) for tok, col in _tokens(group, at)
                            if not carrier >> universe.index(tok) & 1)
            raise ParseError(
                f"family member {universe.set_str(mask)} is not a subset of the "
                f"carrier {universe.set_str(carrier)}: {tok!r} lies outside it",
                lineno, col)
        masks.append(mask)
    return masks


def _word_col(head: str, at: int) -> int:
    """Column of the header word at index `at`."""
    return _tokens(head, 0)[at][1]


# Body builders.  Each takes the declared name, the header's references
# as (word, universe name, universe, mask), the text after the colon and
# its offset, the line number and the later lines, and returns the
# namespace value; parse_spec reports its InputError at column 1.


def _build_universe(name, refs, tail, off, lineno, lines):
    # witnesses are "{x,y}", and pair names "(x,y)", so a brace, a comma
    # outside parentheses, or parentheses that do not balance would make
    # them ambiguous.  Names are walked one by one, braces tested first,
    # only when some punctuation is left once the innermost groups
    # within a name are struck out.
    if _NAME_PUNCT_RE.search(_NAME_GROUP_RE.sub("", tail)):
        for tok, col in _tokens(tail, off):
            if "{" in tok or "}" in tok:
                raise ParseError(f"element name {tok!r} has a brace", lineno, col)
            depths = list(accumulate((ch == "(") - (ch == ")") for ch in tok))
            if any(ch == "," and depth <= 0 for ch, depth in zip(tok, depths)):
                raise ParseError(f"element name {tok!r} has a comma outside "
                                 "parentheses", lineno, col)
            if depths[-1] or min(depths) < 0:
                raise ParseError(f"element name {tok!r} has unbalanced "
                                 "parentheses", lineno, col)
    return Universe(tuple(tail.split()))


def _build_table(name, refs, tail, off, lineno, lines):
    ((uname, _, u, _),) = refs
    if tail.split():
        raise ParseError("table rows belong on the following lines",
                         lineno, _tokens(tail, off)[0][1])
    n = u.size
    found = list(islice(lines, n))
    if len(found) < n:
        raise InputError(f"table {name!r} needs {n} rows, found {len(found)}")
    rows = []
    for row_lineno, _, row_content in found:
        row = row_content.split()
        if len(row) != n:
            raise ParseError(f"table row has {len(row)} entries, expected {n}",
                             row_lineno, 1)
        try:
            rows.append(u.indices(row))
        except InputError:
            _unknown(u, uname, row_content, 0, row_lineno)
            raise
    return uname, CayleyTable(u, tuple(rows))


def _build_partition(name, refs, tail, off, lineno, lines):
    ((uname, _, u, _),) = refs
    blocks = _brace_masks(u, uname, tail, off, lineno, u.all_mask)
    return uname, Partition(u, tuple(blocks))


def _build_subset(name, refs, tail, off, lineno, lines):
    ((uname, _, u, _),) = refs
    return uname, _mask(u, uname, tail, off, lineno)


def _build_topology(name, refs, tail, off, lineno, lines):
    ((cname, uname, u, carrier),) = refs
    family = _brace_masks(u, uname, tail, off, lineno, carrier)
    return cname, verify_topology(u, carrier, family)


def _build_map(name, refs, tail, off, lineno, lines):
    (aname, a_uname, au, amask), (bname, b_uname, bu, bmask) = refs
    pairs = []
    seen = 0
    for tok, col in _tokens(tail, off):
        parts = tok.split("->")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError(f"expected 'src->dst', got {tok!r}", lineno, col)
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
    return aname, bname, FiniteMap(au, bu, amask, bmask, tuple(pairs))


# The grammar.  In a header, `<name>` is the declared name, `<universe>`
# names a universe, `<carrier>` and `<set>` a subset or a universe, and
# every other word is a keyword.
_DECLARATIONS = (
    ("universe <name>", "universes", _build_universe),
    ("table <name> on <universe>", "tables", _build_table),
    ("partition <name> on <universe>", "partitions", _build_partition),
    ("subset <name> of <universe>", "subsets", _build_subset),
    ("topology <name> on <carrier>", "topologies", _build_topology),
    ("map <name> from <set> to <set>", "maps", _build_map),
)
# kind -> (header, namespace, builder, word count, keywords, references),
# the last two as (index, word) pairs past the kind and the name
_GRAMMAR = {
    words[0]: (header, namespace, build, len(words),
               [(at, w) for at, w in enumerate(words) if at > 1 and w[0] != "<"],
               [(at, w) for at, w in enumerate(words) if at > 1 and w[0] == "<"])
    for header, namespace, build in _DECLARATIONS
    for words in [header.split()]
}


class Workspace:
    """Symbol table of parsed declarations, one namespace per kind.

    A universe is stored as itself, any other declaration as the names
    its header references followed by the built object (a map as
    (domain, codomain, FiniteMap)).  It is mutable, so it compares by
    its namespaces and has no hash.
    """

    def __init__(self):
        for _, namespace, _ in _DECLARATIONS:
            setattr(self, namespace, {})

    def __eq__(self, other):
        return isinstance(other, Workspace) and vars(self) == vars(other)

    def get(self, kind: str, name: str):
        """The namespace value of the `kind` declaration called `name`."""
        declared = getattr(self, _GRAMMAR[kind][1])
        if name not in declared:
            raise InputError(f"unknown {kind} {name!r}")
        return declared[name]

    def set_ref(self, name: str) -> tuple[str, Universe, int]:
        """Resolve a subset name, or a universe name as its full set."""
        if name in self.subsets:
            uname, mask = self.subsets[name]
            return uname, self.universes[uname], mask
        if name in self.universes:
            u = self.universes[name]
            return name, u, u.all_mask
        raise InputError(f"unknown subset or universe {name!r}")


def parse_spec(text: str) -> Workspace:
    """Parse a document into a workspace, resolving every reference."""
    ws = Workspace()
    lines = iter([(lineno, raw, content)
                  for lineno, raw in enumerate(text.split("\n"), start=1)
                  if (content := raw.split("#", 1)[0]).strip()])
    for lineno, raw, content in lines:
        head_text, colon, tail = content.partition(":")
        if not colon:
            raise ParseError("missing ':' after the declaration header",
                             lineno, len(raw.rstrip()) + 1)
        head = head_text.split()
        if not head:
            raise ParseError("empty declaration header", lineno, 1)
        kind = head[0]
        if kind not in _GRAMMAR:
            raise ParseError(f"unknown declaration kind {kind!r}",
                             lineno, _word_col(head_text, 0))
        header, namespace, build, size, keywords, references = _GRAMMAR[kind]
        if len(head) != size:
            raise ParseError(f"expected '{header}:'", lineno, 1)
        for at, word in keywords:
            if head[at] != word:
                raise ParseError(f"expected {word!r}, got {head[at]!r}",
                                 lineno, _word_col(head_text, at))
        name = head[1]
        declared = getattr(ws, namespace)
        if name in declared:
            raise ParseError(f"duplicate {kind} name {name!r}",
                             lineno, _word_col(head_text, 1))
        refs = []
        for at, placeholder in references:
            word = head[at]
            try:
                if placeholder == "<universe>":
                    u = ws.get("universe", word)
                    refs.append((word, word, u, u.all_mask))
                else:
                    refs.append((word, *ws.set_ref(word)))
            except InputError as e:
                raise ParseError(str(e), lineno, _word_col(head_text, at)) from None
        try:
            declared[name] = build(name, refs, tail, len(head_text) + 1, lineno, lines)
        except ParseError:
            raise
        except InputError as e:
            raise ParseError(str(e), lineno, 1) from None
    return ws
