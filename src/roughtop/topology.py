"""Finite topologies stored as one minimal open neighbourhood per point.

On a finite carrier every point p has a smallest open set N(p), the
intersection of the opens that contain it (Alexandrov 1937).  A set is
open exactly when it contains N(p) for each of its points p, so the
neighbourhoods determine the topology; read as "q <= p iff q is in
N(p)" they are its specialization preorder.  Every check here is
decided from them: the closure of A is the set of points whose N(p)
meets A, a subspace on A has N(p) & A, a product has N((x, y)) =
N(x) x N(y), and a map is continuous iff it preserves the preorder
(Barmak, *Algebraic Topology of Finite Topological Spaces and
Applications*, LNM 2032, 2011).  Points with one N(p) form a class,
and the opens are the down-sets of the classes ordered by inclusion.
One class table per topology, built on first use, gives the distinct
neighbourhoods, the opens and their count.  One class walk lists the
opens, for callers that print or walk them all; over a declared
family's own N(p) it stops at the first open the family lacks, which
it names as the union or the intersection of two members
(`verify_topology`).  `count_opens` only counts, and also counts a
product with one other topology.

Continuity is decided from the relations each map requires, as pairs
(d, mask), "mask lies inside N(d)" (`map_needs`, `table_needs`); a d
outside the codomain's carrier requires nothing.  `first_unmet` names
a failure by the first open, in canonical (ascending mask) order, whose
preimage is not open: the least N(d) over the unmet pairs, not the N(d)
of the first one, since each such open holds the d of an unmet pair
and so contains its N(d), whose preimage is not open either.

Enumeration is the one place that carries the opens instead.  Each
preorder on n points is built once from one on n - 1 points, and its
opens come straight from its parent's (`_preorder_keys`).  A preorder
is held as one bytes key of local masks, opens first, which the
garbage collector does not track and whose byte order is the
canonical order, so one sort of the keys orders every topology.  The
generator can also drop, level by level, the preorders that break given
implications between relations (`enumerate_topologies`); that is how
`trg.trg_topologies` lists the TRG topologies of a rough group.

Bases are plain tuples of open masks, read by `verify_base` and
`base_at` directly.  Nothing here builds a report: a check puts a
returned witness (None when the property holds) in a clause of its own.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator, Sequence
from functools import cache, cached_property
from operator import itemgetter

from .approx import Universe, bit_indices, product_mask, product_universe
from .errors import CapExceededError, InputError
from .record import Record

ENUMERATION_MAX_POINTS = 6


def canonical_family(members) -> tuple[int, ...]:
    return tuple(sorted(set(members)))


def _nbhds(size: int, carrier: int, family) -> tuple[int, ...]:
    """N(p) for each point: the carrier cut down by every member that
    contains p; 0 for points outside the carrier."""
    nbhd = [0] * size
    for p in bit_indices(carrier):
        acc = carrier
        bit = 1 << p
        for m in family:
            if m & bit:
                acc &= m
        nbhd[p] = acc
    return tuple(nbhd)


class FiniteTopology(Record):
    """A topology on a carrier inside a universe, stored as nbhd[p] =
    N(p) for every point p of the carrier (0 for the other elements).

    `FiniteTopology(universe, carrier, nbhd)` takes the neighbourhoods
    (any iterable, one per element of the universe) and raises
    InputError unless they form a preorder on the carrier and are empty
    off it.  A family of opens goes through `verify_topology`,
    which returns the topology it validates, and a subbasis through
    `generate_topology`.
    """

    _fields = ("universe", "carrier", "nbhd")

    def __init__(self, universe: Universe, carrier: int, nbhd):
        nbhd = tuple(nbhd)
        name = universe.elements
        universe.check_subset(carrier, "carrier")
        if len(nbhd) != universe.size:
            raise InputError(f"{len(nbhd)} neighbourhoods given for the "
                             f"{universe.size} elements of the universe")
        checked = set()  # each distinct N(p) is checked once
        for p in bit_indices(carrier):
            n = nbhd[p]
            if not n >> p & 1:
                raise InputError(f"N({name[p]}) does not contain {name[p]}")
            if n in checked:
                continue
            if n & ~carrier:
                raise InputError(f"N({name[p]}) is not a subset of the carrier")
            for q in bit_indices(n):
                if nbhd[q] & ~n:
                    raise InputError(f"N({name[p]}) contains {name[q]} "
                                     f"but not all of N({name[q]})")
            checked.add(n)
        # every N(p) on the carrier holds p, so any further nonempty one
        # belongs to a point outside it
        if len(nbhd) - nbhd.count(0) > carrier.bit_count():
            p = next(p for p, n in enumerate(nbhd) if n and not carrier >> p & 1)
            raise InputError(f"{name[p]} lies outside the carrier, "
                             f"but N({name[p]}) is not empty")
        self._set(universe=universe, carrier=carrier, nbhd=nbhd)

    @cached_property
    def classes(self) -> tuple[tuple[int, int, int], ...]:
        """One (N, points, below) per distinct N(p), in canonical order:
        the points with that N, and the mask of the classes (by index)
        inside N, its own too.  Those classes sort before N, so one walk
        of N from its highest point takes each one's N and mask whole."""
        nbhd = self.nbhd
        table: dict[int, tuple[int, int, int]] = {}
        for n in sorted(set(nbhd) - {0}):
            same = below = 0
            rest = n
            while rest:
                p = rest.bit_length() - 1
                rest ^= 1 << p
                m = nbhd[p]
                if m == n:
                    same |= 1 << p
                else:
                    below |= table[m][2]
                    rest &= ~m
            table[n] = n, same, below | 1 << len(table)
        return tuple(table.values())

    @cached_property
    def class_closures(self) -> tuple[int, ...]:
        """The closure of each class's points, in class order."""
        closed = [0] * len(self.classes)
        for _, points, below in self.classes:
            for i in bit_indices(below):
                closed[i] |= points
        return tuple(closed)

    @cached_property
    def below_lists(self) -> dict[int, tuple[int, ...]]:
        """The strict below-lists: x -> the points of N(x) other than x,
        for every point x of the carrier."""
        nbhd = self.nbhd
        return {x: tuple(bit_indices(nbhd[x] & ~(1 << x)))
                for x in bit_indices(self.carrier)}

    @cached_property
    def opens(self) -> tuple[int, ...]:
        """Every open set in canonical order, listed on first use by one
        class walk: a class joins an open once the rest of its N is in it."""
        opens = [0]
        for n, points, _ in self.classes:
            opens += [o | points for o in opens if o & n == n ^ points]
        return tuple(sorted(opens))

    def count_opens(self, other: FiniteTopology | None = None) -> int:
        """Number of open sets, as down-sets of the classes; with `other`,
        of the product, on pairs of classes: N((x, y)) = N(x) x N(y), so
        (i, j) lies below (k, l) iff class i lies below k and j below l."""
        below = [b for _, _, b in self.classes]
        if other is not None:
            right = [b for _, _, b in other.classes]
            below = [product_mask(i, j, len(right)) for i in below for j in right]
        return _count_down_sets(below)

    def is_open(self, mask: int) -> bool:
        if mask < 0 or mask & ~self.carrier:
            return False
        nbhd = self.nbhd
        for p in bit_indices(mask):
            if nbhd[p] & ~mask:
                return False
        return True


def _count_down_sets(below) -> int:
    """Number of down-sets of an order on range(len(below)), where
    below[i] masks the elements at or below i: the product over the
    connected components of the memoised count D(P) = D(P - above(x))
    + D(P - below[x]), which leaves the pivot x out or puts it in."""
    above = [1 << i for i in range(len(below))]
    for i, b in enumerate(below):
        for j in bit_indices(b ^ 1 << i):
            above[j] |= 1 << i
    adj = [a | b for a, b in zip(above, below)]
    memo: dict[int, int] = {}

    def pivot(comp: int) -> int:
        """The element whose two branches remove the most elements in
        the worse case; it keeps chains logarithmically deep."""
        best = best_x = -1
        left = comp
        while left:
            low = left & -left
            left ^= low
            x = low.bit_length() - 1
            k = min((above[x] & comp).bit_count(), (below[x] & comp).bit_count())
            if k > best:
                best, best_x = k, x
        return best_x

    def count(rest: int) -> int:
        total = 1
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                new = adj[low.bit_length() - 1] & rest & ~comp
                comp |= new
                frontier |= new
            rest ^= comp
            if comp & (comp - 1) == 0:
                total *= 2
            else:
                if comp not in memo:
                    x = pivot(comp)
                    memo[comp] = count(comp & ~above[x]) + count(comp & ~below[x])
                total *= memo[comp]
        return total

    # the elements comparable to no other, each a component of two down-sets
    lone = sum(1 << x for x, a in enumerate(adj) if a & (a - 1) == 0)
    return count((1 << len(below)) - 1 & ~lone) << lone.bit_count()


def map_needs(fmap: FiniteMap, below) -> Iterator[tuple[int, int]]:
    """The required relations of a map f, a table with one row: for
    each point p with points below it, (f(p), the mask of their images)."""
    return table_needs({0: fmap._table}, {0: ()}, below)


def table_needs(rows, below_x, below_y) -> Iterator[tuple[int, int]]:
    """The required relations of (x, y) -> rows[x][y] out of a product
    whose factors' points key `below_x` and `below_y`, by monotonicity
    in each argument: with z = rows[x][y], rows[a][y] (a below x) and
    rows[x][b] (b below y) lie in N(z), so rows[a][b] lies in N(z) too."""
    for x, lows in below_x.items():
        row, low_rows = rows[x], [rows[a] for a in lows]
        for y, lows_y in below_y.items():
            if low_rows or lows_y:
                mask = 0
                for r in low_rows:
                    mask |= 1 << r[y]
                for b in lows_y:
                    mask |= 1 << row[b]
                yield row[y], mask


def first_unmet(cod: FiniteTopology, needs) -> int | None:
    """None if every (d, mask) of `needs` with d in the carrier has
    mask inside N(d), else the least N(d) over the pairs that fail."""
    nbhd, carrier = cod.nbhd, cod.carrier
    bad = 0
    for d, mask in needs:
        if mask & ~nbhd[d] and carrier >> d & 1:
            bad |= 1 << d
    if not bad:
        return None
    return next(n for n, points, _ in cod.classes if points & bad)


def _from_family(universe: Universe, carrier: int, family
                 ) -> tuple[frozenset[int], FiniteTopology]:
    """The family's members, and the smallest topology on the carrier
    holding every member; its N(p) (`_nbhds`) are always a preorder, so
    the constructor never raises here."""
    universe.check_subset(carrier, "carrier")
    members = frozenset(family)
    for m in sorted(members):
        if m < 0 or m & ~carrier:
            raise InputError(
                f"family member {universe.set_str(m & universe.all_mask)} is not a subset "
                f"of the carrier {universe.set_str(carrier)}"
            )
    return members, FiniteTopology(universe, carrier, _nbhds(universe.size, carrier, members))


def verify_topology(universe: Universe, carrier: int, family) -> FiniteTopology:
    """The topology a raw family of subsets is, or InputError naming
    the first open it lacks.  Each member m is the union of N(p) over
    its points p, for the family's own N(p), so the family lies among
    the opens of the topology they form: it is that topology exactly
    when it holds them all (`_missing_open`)."""
    members, top = _from_family(universe, carrier, family)
    witness = _missing_open(top, members)
    if witness is None:
        return top
    raise InputError(f"family is not a topology: {witness}")


def _missing_open(top: FiniteTopology, members: frozenset[int]) -> str | None:
    """None when the family holds every open of `top`, else the first
    open it lacks: the empty set, the carrier, or the first w = o | N
    of the class walk of `opens`, which keeps only members (at most
    twice as many opens as the family has).  w is the union of o and N
    when N is a member; else the carrier is cut, in canonical order, by
    the members holding N, and the first cut that is no member names w."""
    name = top.universe.set_str
    if 0 not in members:
        return "the empty set is missing from the family"
    if top.carrier not in members:
        return f"the carrier {name(top.carrier)} is missing"
    opens = [0]
    for n, points, _ in top.classes:
        rest = n ^ points
        new = [o | points for o in opens if o & n == rest]
        if members.issuperset(new):
            opens += new
            continue
        o = next(o for o in opens if o & n == rest and o | points not in members)
        if n in members:
            return f"union of {name(o)} and {name(n)} = {name(o | n)} is not in the family"
        acc = top.carrier
        for m in sorted(m for m in members if m & points):
            if acc & m not in members:  # at the latest when acc & m = N
                return (f"intersection of {name(acc)} and {name(m)} = "
                        f"{name(acc & m)} is not in the family")
            acc &= m
    return None


def generate_topology(universe: Universe, carrier: int, subbasis) -> FiniteTopology:
    """Smallest topology on the carrier containing every subbasis member."""
    return _from_family(universe, carrier, subbasis)[1]


def subspace_topology(top: FiniteTopology, a_mask: int) -> FiniteTopology:
    """Relative topology on A: N_A(p) = N(p) & A."""
    if a_mask < 0 or a_mask & ~top.carrier:
        raise InputError("subspace carrier is not a subset of the carrier")
    return FiniteTopology(
        top.universe, a_mask,
        (n & a_mask if a_mask >> p & 1 else 0 for p, n in enumerate(top.nbhd)))


def product_topology(t1: FiniteTopology, t2: FiniteTopology) -> FiniteTopology:
    """Product topology on the pair universe: N((x, y)) = N(x) x N(y)."""
    universe = product_universe(t1.universe, t2.universe)
    n2 = t2.universe.size
    nbhd = [0] * universe.size
    for x in bit_indices(t1.carrier):
        for y in bit_indices(t2.carrier):
            nbhd[x * n2 + y] = product_mask(t1.nbhd[x], t2.nbhd[y], n2)
    return FiniteTopology(
        universe, product_mask(t1.carrier, t2.carrier, n2), nbhd)


def closure(top: FiniteTopology, a_mask: int) -> int:
    """Smallest closed superset of A: the closures of the classes it meets."""
    if a_mask < 0 or a_mask & ~top.carrier:
        raise InputError("A is not a subset of the carrier")
    acc = 0
    for (_, points, _), cl in zip(top.classes, top.class_closures):
        if points & a_mask:
            acc |= cl
    return acc


class FiniteMap(Record):
    """Total map between finite subsets, stored by element index."""

    _fields = ("domain_universe", "codomain_universe", "domain", "codomain", "pairs")

    def __init__(self, domain_universe: Universe, codomain_universe: Universe,
                 domain: int, codomain: int, pairs: tuple[tuple[int, int], ...]):
        pairs = tuple(sorted(pairs))
        seen = 0
        table = {}
        for src, dst in pairs:
            if (domain >> src) & 1 == 0:
                raise InputError("map assigns an element outside its domain")
            if seen >> src & 1:
                raise InputError("map assigns an element twice")
            if (codomain >> dst) & 1 == 0:
                raise InputError("map image escapes its codomain")
            seen |= 1 << src
            table[src] = dst
        if seen != domain:
            missing = domain_universe.set_str(domain & ~seen)
            raise InputError(f"map is not total: missing {missing}")
        self._set(domain_universe=domain_universe, codomain_universe=codomain_universe,
                  domain=domain, codomain=codomain, pairs=pairs, _table=table)

    def apply(self, i: int) -> int:
        return self._table[i]

    def image_mask(self, mask: int | None = None) -> int:
        if mask is None:
            mask = self.domain
        acc = 0
        for i in bit_indices(mask & self.domain):
            acc |= 1 << self._table[i]
        return acc

    def preimage(self, target: int) -> int:
        acc = 0
        for src, dst in self.pairs:
            if (target >> dst) & 1:
                acc |= 1 << src
        return acc

    def is_injective(self) -> bool:
        return self.image_mask().bit_count() == self.domain.bit_count()

    def is_bijective(self) -> bool:
        return self.is_injective() and self.image_mask() == self.codomain

    def inverse(self) -> "FiniteMap":
        if not self.is_bijective():
            raise InputError("map is not bijective, cannot invert")
        return FiniteMap(
            self.codomain_universe, self.domain_universe, self.codomain, self.domain,
            tuple((dst, src) for src, dst in self.pairs),
        )


def is_continuous(fmap: FiniteMap, dom_top: FiniteTopology,
                  cod_top: FiniteTopology) -> str | None:
    """None when f(N(p)) lies inside N(f(p)) for every point p, that
    is, when f is continuous; else the witness naming the first open of
    the codomain whose preimage is not open."""
    if fmap.domain_universe != dom_top.universe or fmap.codomain_universe != cod_top.universe:
        raise InputError("map universes do not match the topologies")
    if fmap.domain != dom_top.carrier:
        raise InputError("map domain differs from the domain-topology carrier")
    if fmap.codomain != cod_top.carrier:
        raise InputError("map codomain differs from the codomain-topology carrier")
    o = first_unmet(cod_top, map_needs(fmap, dom_top.below_lists))
    return None if o is None else (
        f"open {cod_top.universe.set_str(o)} has preimage "
        f"{dom_top.universe.set_str(fmap.preimage(o))}, which is not open")


def verify_base(top: FiniteTopology, members) -> str | None:
    """None when the members form a base of the topology: open sets
    whose unions recover every open set; else the witness of the first
    failure, a member that is not open or an open that no union of
    members gives.  Every member is held to the carrier first, so a
    member outside it is an input error whatever the order."""
    name = top.universe.set_str
    fam = canonical_family(members)
    for m in fam:
        if m & ~top.carrier:
            raise InputError(
                f"base member {name(m & top.universe.all_mask)} is not a "
                f"subset of the carrier {name(top.carrier)}")
    for m in fam:
        if not top.is_open(m):
            return f"member {name(m)} is not open"

    def inside(o: int) -> int:
        u = 0
        for m in fam:
            if m & ~o == 0:
                u |= m
        return u

    # an open O fails when some z in O lies in no member inside O;
    # then N(z), inside O, fails too, so the first failing open is an N
    o = next((n for n, _, _ in top.classes if inside(n) != n), None)
    return None if o is None else (
        f"open {name(o)} is not a union of members; "
        f"members inside it cover only {name(inside(o))}")


def base_at(members, point: int) -> tuple[int, ...]:
    """Subfamily of base members containing the given element index."""
    return tuple(m for m in canonical_family(members) if (m >> point) & 1)


def _keeps(rel: int, rules) -> bool:
    """Whether the relations `rel` keep every (if_bit, then_mask) rule."""
    for if_bit, then in rules:
        if rel >> if_bit & 1 and rel & then != then:
            return False
    return True


@cache
def _level_tables(k: int) -> tuple[tuple[bytes, ...], tuple[bytes, ...], bytes,
                                   tuple[int, ...]]:
    """The tables `_preorder_keys` grows level k with, for k < 8: two
    deletion tables for bytes.translate, the masks that are not inside
    m and the masks that do not contain m, for each mask m on 0..k-1;
    the translation that adds k to a mask; and, for each up-set U, k
    added to N(q) for every q in U, as an int whose byte q is N(q)."""
    kbit = 1 << k
    masks = range(kbit)
    not_inside = tuple(bytes(x for x in masks if x & ~m) for m in masks)
    not_above = tuple(bytes(x for x in masks if m & ~x) for m in masks)
    add_k = bytes(x | kbit for x in range(256))
    raise_u = tuple(sum(kbit << 8 * q for q in bit_indices(u)) for u in masks)
    return not_inside, not_above, add_k, raise_u


def _preorder_keys(n: int, rules=None) -> list[bytes]:
    """Every preorder on range(n) once, as one bytes key: its opens in
    ascending order, then N(n-1), ..., N(0), all as local masks.

    A preorder P on 0..k-1 grows to one on 0..k by giving k a down-set
    D and an up-set U; transitivity holds exactly when D is open, U is
    closed and D lies inside N(u) for every u in U.  Then N(k) = D + k,
    and every N(u) with u in U gains k.  The child's opens are the
    opens of P that miss U, followed by the opens of P that contain D
    with k added.  That list is already ascending, because k is the
    highest bit placed so far.  No opens list is a proper prefix of
    another (each ends at the carrier), so the keys sort as their opens
    do.  Masks are single bytes, so n is at most 8.

    `rules`, if given, keeps only the preorders whose relations obey
    some implications.  The relations of a key are the int of its last
    k + 1 bytes, whose byte q is N(q): "i <= j" (i in N(j)) is bit
    8 * j + i.  `rules[k]` lists (if_bit, then_mask) pairs whose bits
    name points up to k; a child of level k whose relations have the
    if_bit set and some bit of then_mask clear is dropped before its key
    is built.  Bit 8 * n, which no key holds, in a then_mask forbids the
    if_bit outright.  A relation between two placed points never changes
    in a descendant, so the pruning drops exactly the preorders that
    break a rule.
    """
    keys = [b"\x00"]
    for k in range(n):
        kbit, full = 1 << k, (1 << k) - 1
        not_inside, not_above, add_k, raise_u = _level_tables(k)
        level = rules[k] if rules else None
        children = []
        add = children.append
        for key in keys:
            cut = len(key) - k
            opens, nbhd = key[:cut], key[cut:]
            nbhd_int = int.from_bytes(nbhd, "big")
            # the opens that contain D, with k added, then N(k) = D + k;
            # under rules, only for a D that some kept child takes
            above = {} if level else {
                d: opens.translate(add_k, not_above[d]) + bytes((d | kbit,))
                for d in opens}
            for o in opens:
                u = full & ~o
                # D must lie inside every N(u); N(q) is byte k-1-q
                bound, rest = full, u
                while rest:
                    low = rest & -rest
                    bound &= nbhd[k - low.bit_length()]
                    rest ^= low
                rel = nbhd_int | raise_u[u]
                ds = opens.translate(None, not_inside[bound])
                if level:
                    # each child's relations, tested before its key is built
                    ds = [d for d in ds if _keeps((d | kbit) << 8 * k | rel, level)]
                    if not ds:
                        continue
                    for d in ds:
                        if d not in above:
                            above[d] = (opens.translate(add_k, not_above[d])
                                        + bytes((d | kbit,)))
                miss_u = opens.translate(None, not_inside[o])
                raised = rel.to_bytes(k, "big")
                for d in ds:
                    add(miss_u + above[d] + raised)
        keys = children
    return keys


class Topologies(Sequence):
    """The topologies of `enumerate_topologies`, held as their sorted
    keys and built when read.  Each read makes a FiniteTopology with
    its nbhd and opens already set, mapped from local to universe masks
    through one table, which keeps mask order.  A caller that walks the
    sequence holds one topology object at a time, not 209527 of them at
    6 points.  Unlike a tuple, two sequences do not compare equal by
    value, and each read builds a new object whose class table starts
    empty; take `tuple(...)` of it to compare listings or to keep the
    objects.  A caller that only prints or matches the opens reads them
    as bytes through `local_opens` and builds no object at all."""

    __slots__ = ("_keys", "_n", "_table", "_build")

    def __init__(self, universe: Universe, carrier: int, keys: list[bytes]):
        points = tuple(bit_indices(carrier))
        n = len(points)
        table = [0]
        for p in points:
            table += [m | 1 << p for m in table]
        table = tuple(table)
        to_mask = table.__getitem__
        # where each universe element's N sits in a key: the i-th
        # point's at -1 - i, the others' at 0, which holds the empty open
        pick = [0] * universe.size
        for i, p in enumerate(points):
            pick[p] = -1 - i
        # itemgetter returns a bare item, not a tuple, for a single index
        spread = (itemgetter(*pick) if len(pick) > 1
                  else lambda key: tuple(key[i] for i in pick))
        new = FiniteTopology.__new__

        def build(key: bytes) -> FiniteTopology:
            key = tuple(map(to_mask, key))
            top = new(FiniteTopology)
            # the constructor's fields and the opens in one _set: the
            # constructor and a second _set put the 6-point probe path
            # over its 1 s budget (BENCH_9.json)
            top._set(universe=universe, carrier=carrier, nbhd=spread(key),
                     opens=key[:len(key) - n])
            return top

        self._keys, self._n, self._table = keys, n, table
        self._build = build

    def local_opens(self) -> tuple[Iterator[bytes], tuple[int, ...]]:
        """Each topology's opens in order, as one bytes of local masks
        (bit i for the i-th point of the carrier), and the table that
        maps each local mask to its universe mask.  Two listings on one
        carrier give equal bytes exactly for equal topologies."""
        n = self._n
        return (key[:len(key) - n] for key in self._keys), self._table

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._build, self._keys[i]))
        return self._build(self._keys[i])

    def __iter__(self) -> Iterator[FiniteTopology]:
        return map(self._build, self._keys)


def enumerate_topologies(universe: Universe, carrier: int, rules=()) -> Topologies:
    """All topologies on the carrier, in canonical order (by their
    sorted lists of opens), each with its opens already listed; with
    `rules`, only those whose preorders keep each (a, x, c, d): "a in
    N(x) implies c in N(d)", or, if c is None, "a is never in N(x)".

    Topologies on a finite set match one-to-one its preorders (q <= p
    iff q is in N(p)).  `_preorder_keys` generates each preorder once
    on local masks (bit i for the i-th point of the carrier), together
    with its opens, dropping each one that breaks a rule, and one sort
    of the keys puts them in canonical order.  The result is a sequence
    that builds each topology when it is read (`Topologies`).  The
    n-point count is A000798(n): 209527 at 6 points and 9535241 at 7,
    so the carrier is capped at ENUMERATION_MAX_POINTS points.
    """
    universe.check_subset(carrier, "carrier")
    n = carrier.bit_count()
    if n > ENUMERATION_MAX_POINTS:
        raise CapExceededError(
            f"topology enumeration supports at most {ENUMERATION_MAX_POINTS} points, got {n}"
        )
    local = {p: i for i, p in enumerate(bit_indices(carrier))}
    then = defaultdict(int)
    for a, x, c, d in rules:
        a, x = local[a], local[x]
        # bit 8n, which no key holds, forbids a in N(x) outright
        level, bit = ((max(a, x), 1 << 8 * n) if c is None else
                      (max(a, x, local[c], local[d]), 1 << 8 * local[d] + local[c]))
        then[level, 8 * x + a] |= bit
    levels = [[] for _ in range(n)]
    for (level, if_bit), mask in sorted(then.items()):
        levels[level].append((if_bit, mask))
    keys = _preorder_keys(n, levels)
    keys.sort()
    return Topologies(universe, carrier, keys)
