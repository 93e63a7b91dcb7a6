"""Independent known answers for the benchmark.

Everything here is recomputed from raw tables and sets with a method
different from the package: a finite topology is reduced to its
minimal open neighbourhoods N(p) (the specialization preorder of an
Alexandrov space, Barmak, LNM 2032, 2011), and every continuity
question becomes a containment of neighbourhoods, f(N(p)) <= N(f(p)).
Elements are plain indices, sets are frozensets, tables are lists of
rows with ``table[x][y] = x * y``.  Nothing is imported from the
package, so agreement between the two is evidence, not an echo.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

# OEIS A000798: number of topologies on n labelled points, n = 0, 1, ...
A000798 = (1, 1, 4, 29, 355, 6942, 209527, 9535241, 642779354)


def mask_set(mask: int) -> frozenset:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def upper_of(blocks, g) -> frozenset:
    out = set()
    for b in blocks:
        if b & g:
            out |= b
    return frozenset(out)


@dataclass(frozen=True)
class RoughGroup:
    table: tuple
    g: frozenset
    up: frozenset
    e: int
    inv: dict


def rough_group(table, blocks, g) -> RoughGroup | None:
    """The four rough-group laws by direct table arithmetic, or None."""
    g = frozenset(g)
    blocks = [frozenset(b) for b in blocks]
    up = upper_of(blocks, g)
    if any(table[x][y] not in up for x in g for y in g):
        return None
    for x, y, z in itertools.product(up, repeat=3):
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return None
    ids = [c for c in sorted(up)
           if all(table[x][c] == x == table[c][x] for x in g)]
    if not ids:
        return None
    e = ids[0]
    inv = {}
    for x in g:
        ys = [y for y in g if table[x][y] == e == table[y][x]]
        if not ys:
            return None
        inv[x] = ys[0]
    return RoughGroup(tuple(tuple(r) for r in table), g, up, e, inv)


def neighbourhoods(carrier, opens) -> dict:
    """N(p): the intersection of every open containing p."""
    carrier = frozenset(carrier)
    nb = {}
    for p in carrier:
        acc = carrier
        for o in opens:
            if p in o:
                acc = acc & o
        nb[p] = acc
    return nb


def is_topology(carrier, opens) -> bool:
    """A family is a topology iff it is exactly the set of unions of
    its own minimal neighbourhoods."""
    fam = {frozenset(o) for o in opens}
    if any(not o <= frozenset(carrier) for o in fam):
        return False
    return fam == set(opens_of(neighbourhoods(carrier, fam)))


def opens_of(nb: dict) -> list:
    """Every open set: the subsets S with N(p) <= S for each p in S."""
    pts = sorted(nb)
    out = []
    for r in range(len(pts) + 1):
        for combo in itertools.combinations(pts, r):
            s = frozenset(combo)
            if all(nb[p] <= s for p in s):
                out.append(s)
    return out


def restrict(nb: dict, sub) -> dict:
    """Neighbourhoods of the subspace topology on `sub`."""
    sub = frozenset(sub)
    return {p: nb[p] & sub for p in sub}


def continuous(f, nb_dom: dict, nb_cod: dict) -> bool:
    """f(N(p)) <= N(f(p)) for every point of the domain."""
    return all({f[q] for q in nb_dom[p]} <= nb_cod[f[p]] for p in nb_dom)


def trg(rg: RoughGroup, nb: dict, mode: str = "upper") -> bool:
    """Product map and inverse map continuity by the neighbourhood
    criterion.  In "relative" mode the codomain is the subspace on G and
    pairs whose product leaves G lie in no preimage, so they bind
    nothing."""
    t = rg.table
    nb_g = restrict(nb, rg.g)
    cod = nb if mode == "upper" else nb_g
    for x in rg.g:
        for y in rg.g:
            z = t[x][y]
            if z not in cod:
                continue
            if any(t[a][b] not in cod[z] for a in nb_g[x] for b in nb_g[y]):
                return False
    return continuous(rg.inv, nb_g, nb_g)


def upper_inverse(rg: RoughGroup, v) -> frozenset:
    t, e = rg.table, rg.e
    return frozenset(y for y in rg.up
                     if any(t[x][y] == e == t[y][x] for x in v))


def symmetric_square_witnesses(rg: RoughGroup, nb: dict, w) -> list:
    """Opens V of the upper space with e in V, V = V^-1 and V*V <= W,
    in the package's canonical order (by bitmask value)."""
    t = rg.table
    out = []
    for v in opens_of(nb):
        if rg.e not in v or upper_inverse(rg, v) != v:
            continue
        if all(t[a][b] in w for a in v for b in v):
            out.append(v)
    return sorted(out, key=lambda s: sum(1 << i for i in s))


def homogeneous(nb: dict) -> bool:
    """Every point can be carried to every other by an automorphism of
    the specialization preorder; automorphisms form a group, so it is
    enough that the orbit of one point is everything."""
    pts = sorted(nb)
    if len(pts) <= 1:
        return True
    ups = {p: sum(1 for r in pts if p in nb[r]) for p in pts}
    cls = {p: sum(1 for r in pts if nb[r] == nb[p]) for p in pts}
    inv = {p: (len(nb[p]), ups[p], cls[p]) for p in pts}
    if len(set(inv.values())) != 1:
        return False
    p0 = pts[0]
    return all(_automorphism_with(nb, pts, p0, q) for q in pts[1:])


def _automorphism_with(nb, pts, p0, q) -> bool:
    order = [p0] + [p for p in pts if p != p0]
    f = {p0: q}
    used = {q}

    def consistent(a) -> bool:
        fa = f[a]
        for b, fb in f.items():
            if (b in nb[a]) != (fb in nb[fa]) or (a in nb[b]) != (fa in nb[fb]):
                return False
        return True

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        a = order[i]
        for c in pts:
            if c in used:
                continue
            f[a] = c
            used.add(c)
            if consistent(a) and extend(i + 1):
                return True
            used.discard(c)
            del f[a]
        return False

    return consistent(p0) and extend(1)


def preorder_count(n: int) -> int:
    """Topologies on n points counted as preorders, built as a set
    partition into classes plus a partial order on the classes."""
    return sum(_poset_count(k) for k in _partition_class_counts(n))


def _partition_class_counts(n: int):
    def rec(i: int, k: int):
        if i == n:
            yield k
            return
        for _ in range(k):
            yield from rec(i + 1, k)
        yield from rec(i + 1, k + 1)
    yield from rec(0, 0) if n else iter([0])


def _poset_count(k: int) -> int:
    pairs = list(itertools.combinations(range(k), 2))
    count = 0
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        below = [set() for _ in range(k)]
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                below[j].add(i)
            elif c == 2:
                below[i].add(j)
        if all(below[b] <= below[a] for a in range(k) for b in below[a]):
            count += 1
    return count


def z_table(n: int) -> list:
    return [[(x + y) % n for y in range(n)] for x in range(n)]


def self_check() -> None:
    """Hand-written facts the oracle must reproduce; raises on a miss."""
    for n in range(6):
        if preorder_count(n) != A000798[n]:
            raise AssertionError(f"preorder count on {n} points is wrong")
    # fixtures/zmod3.rg: Z3, partition {0 2} {1}, G = {1 2}: 29
    # topologies on the upper approximation, 10 of them admit a TRG
    rg = rough_group(z_table(3), [{0, 2}, {1}], {1, 2})
    tops = list(_all_topologies(rg.up))
    passes = sum(trg(rg, neighbourhoods(rg.up, t)) for t in tops)
    if (len(tops), passes) != (29, 10):
        raise AssertionError(f"zmod3 gives {len(tops)} topologies, {passes} TRG")
    for n in (2, 3, 5, 6):
        rg = rough_group(z_table(n), [{i} for i in range(n)], range(n))
        up = rg.up
        discrete = {p: frozenset({p}) for p in up}
        indiscrete = {p: up for p in up}
        if not (trg(rg, discrete) and trg(rg, indiscrete)):
            raise AssertionError(f"discrete or indiscrete Z{n} is not a TRG")


def _all_topologies(carrier):
    pts = sorted(carrier)
    pairs = [(a, b) for a in pts for b in pts if a != b]
    seen = set()
    for bits in range(1 << len(pairs)):
        nb = {p: {p} for p in pts}
        for k, (a, b) in enumerate(pairs):
            if bits >> k & 1:
                nb[a].add(b)
        if all(nb[b] <= nb[a] for a in pts for b in nb[a]):
            key = tuple(frozenset(nb[p]) for p in pts)
            if key not in seen:
                seen.add(key)
                yield opens_of({p: frozenset(nb[p]) for p in pts})
