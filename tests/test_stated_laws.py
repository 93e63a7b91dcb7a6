"""The laws that hold in every rough group, which the checks state
without a scan, recomputed straight from raw tables.

Under the definition of Biswas and Nanda, a rough group G has its
products in upper(G), associativity on upper(G), one two-sided identity
e for all of G, and an inverse in G for each member.  From these alone:

- translation by a member a of G is injective on G: a*x = a*y gives
  x = (a^-1*a)*x = a^-1*(a*x) = a^-1*(a*y) = y;
- the inverse map sends G into G and is its own inverse, so it is onto
  G, and its continuity is continuity both ways;
- when G = upper(G), G is a group under the table, with identity e;
- associativity holds on upper(G), so upper(G) is a group exactly when
  it is closed and has an identity and inverses in it;
- g*e = g, so g*O holds g for every O that holds e;
- when upper(G) is a group, e*e = e makes e its identity, by
  cancellation; so for a rough subgroup H whose upper(H) is closed, and
  e in W inside H, upper(H)*W lies in upper(H) and holds each h*e = h.

Each fact is recomputed here from the rows of the table, with
frozensets, never through the library's scans: the group-level ones on
every rough group of Z_2 to Z_4, of Z_2 x Z_2 and of 400 seeded 3-point
tables, the ones that involve a topology on every TRG of Z_2, Z_3 and
Z_2 x Z_2.  The last test pins the theorem for G = upper(G): the TRG
topologies are exactly the coset topologies of G's normal subgroups.
"""

import itertools
import random
from collections import Counter

from roughtop.actions import check_AU_open
from roughtop.groups import upper_group_witness
from roughtop.topology import enumerate_topologies
from roughtop.trg import (
    TRGCert,
    check_G_equals_G_inverse,
    check_base_translation,
    check_topological_group,
    check_translations,
    decide_trg,
    trg_topologies,
)

from conftest import (
    cyclic_table,
    mask_to_set,
    oracle_is_continuous,
    oracle_is_group,
    oracle_upper,
    rough_groups,
    set_to_mask,
    table_of,
)

KLEIN = [[x ^ y for y in range(4)] for x in range(4)]
# S_3: the permutations of 3 points, x*y = x after y
PERMS = list(itertools.permutations(range(3)))
S3 = [[PERMS.index(tuple(x[i] for i in y)) for y in PERMS] for x in PERMS]


def _subsets(s):
    """Every nonempty subset of s, as frozensets."""
    s = sorted(s)
    return [frozenset(c) for r in range(1, len(s) + 1)
            for c in itertools.combinations(s, r)]


def _raw(cert):
    """(rows, blocks, G, upper(G), e, inverse) read from the table, the
    partition and G alone: e is the first element of upper(G) that is a
    two-sided identity for G, and inverse[x] the member y of G with
    x*y = y*x = e."""
    rows = cert.table.rows
    blocks = [mask_to_set(b) for b in cert.space.partition.blocks]
    g = mask_to_set(cert.g_mask)
    up = oracle_upper(blocks, g)
    e = min(c for c in up if all(rows[c][x] == x == rows[x][c] for x in g))
    inverse = {x: next(y for y in g if rows[x][y] == e == rows[y][x]) for x in g}
    return rows, blocks, g, up, e, inverse


def _product(rows, xs, ys) -> frozenset:
    return frozenset(rows[x][y] for x in xs for y in ys)


def _closed_rough_subgroups(rows, blocks, g, up, inverse):
    """Each (H, upper(H)) for H a rough subgroup of G, taken as a
    premise: H's products stay in upper(H), H holds each inverse, and
    upper(H) is closed, inside an upper(G) that is a group."""
    if not oracle_is_group(rows, sorted(up)):
        return
    for h in _subsets(g):
        up_h = oracle_upper(blocks, h)
        if (_product(rows, h, h) <= up_h and all(inverse[x] in h for x in h)
                and _product(rows, up_h, up_h) <= up_h):
            yield h, up_h


def _probe_rough_groups():
    rng = random.Random(1909)
    tables = [cyclic_table(n) for n in (2, 3, 4)] + [table_of(KLEIN)] + [
        table_of([[rng.randrange(3) for _ in range(3)] for _ in range(3)])
        for _ in range(400)]
    return [cert for table in tables for cert in rough_groups(table)]


def test_group_level_laws_hold_on_every_probe_rough_group():
    """Injective translations, an inverse map that is an involution of
    G, the group axioms when G = upper(G), g in g*O for every O holding
    e, and upper(H)*W = upper(H) for every W inside H holding e."""
    certs = _probe_rough_groups()
    seen = dict.fromkeys(("exact", "translates", "subgroup-unions"), 0)
    for cert in certs:
        rows, blocks, g, up, e, inverse = _raw(cert)
        assert e == cert.designated_e
        assert dict(cert.inverse.pairs) == inverse
        for a in g:
            assert len(_product(rows, {a}, g)) == len(_product(rows, g, {a})) == len(g)
        assert set(inverse.values()) == g
        assert all(inverse[inverse[x]] == x for x in g)
        if up == g:
            assert oracle_is_group(rows, sorted(g))
            seen["exact"] += 1
        for o in _subsets(up):
            if e in o:
                assert all(x in _product(rows, {x}, o) for x in g)
                seen["translates"] += 1
        for h, up_h in _closed_rough_subgroups(rows, blocks, g, up, inverse):
            for w in _subsets(h):
                if e in w:
                    assert _product(rows, up_h, w) == up_h
                    seen["subgroup-unions"] += 1
    assert len(certs) == 1302
    assert seen == {"exact": 918, "translates": 2723, "subgroup-unions": 1904}


def _upper_group_witness(rows, names, up):
    """The witness of `premise-upper-group`, worked out on frozensets:
    the first pair of upper(G), in canonical order, whose product leaves
    it, else a missing identity, else the first member with no inverse
    there.  Associativity is not rechecked: every rough group has it."""
    elems = sorted(up)
    for x in elems:
        for y in elems:
            if rows[x][y] not in up:
                return f"{names[x]} * {names[y]} = {names[rows[x][y]]} leaves the set"
    ident = [c for c in elems if all(rows[c][x] == x == rows[x][c] for x in elems)]
    if not ident:
        return "no identity element in the set"
    for x in elems:
        if not any(rows[x][y] == ident[0] == rows[y][x] for y in elems):
            return f"{names[x]} has no inverse in the set"
    return None


def test_upper_group_witness_matches_raw_rows_on_every_probe_rough_group():
    """upper(G) is a group, or the first of closure, an identity and
    inverses that it breaks is named, exactly as the raw rows say."""
    seen = Counter()
    for cert in _probe_rough_groups():
        rows, _, _, up, _, _ = _raw(cert)
        want = _upper_group_witness(rows, cert.space.universe.elements, up)
        assert upper_group_witness(cert) == want
        seen[next((k for k in ("leaves", "identity", "inverse") if k in (want or "")), want)] += 1
    assert seen == {None: 1098, "leaves": 54, "identity": 95, "inverse": 55}


def test_topological_laws_hold_on_every_trg_of_z2_z3_and_the_klein_group():
    """On every topology of G, whether or not it comes from a TRG, the
    inverse map is its own inverse, so the inverse-homeomorphism clause
    names the continuity witness of the inverse map alone.  On every
    TRG, each g*O of base-translation holds g, the clauses it still
    decides agree with the raw scan, every open W of tau_G with e in W
    inside a rough subgroup H gives upper(H)*W = upper(H), and
    `premise-upper-group` names the witness of the raw rows."""
    seen = dict.fromkeys(("trgs", "tau-G", "bases", "subgroup-unions"), 0)
    for table in (cyclic_table(2), cyclic_table(3), table_of(KLEIN)):
        for cert in rough_groups(table):
            rows, blocks, g, up, e, inverse = _raw(cert)
            u = cert.space.universe
            pairs = sorted(inverse.items())
            assert sorted((y, x) for x, y in pairs) == pairs
            tau = next(iter(trg_topologies(cert)))
            for s in enumerate_topologies(u, cert.g_mask):
                wit = oracle_is_continuous(cert.inverse, u, s.opens, u, s.opens).first_witness()
                rep = check_translations(TRGCert(cert, tau, s), min(g))
                assert rep.clause("inverse-homeomorphism").witness == wit
                seen["tau-G"] += 1
            wit = _upper_group_witness(rows, u.elements, up)
            for tau in trg_topologies(cert):
                tcert = decide_trg(cert, tau)[1]
                seen["trgs"] += 1
                assert check_AU_open(tcert, 0, 0).clause("premise-upper-group").witness == (
                    wit and f"the upper approximation is not a group: {wit}")
                opens = set(map(mask_to_set, tau.opens))
                opens_g = {o & g for o in opens}
                assert check_G_equals_G_inverse(tcert).verdict == "pass"
                assert check_topological_group(tcert).verdict == (
                    "pass" if up == g else "not-applicable")
                rep = check_base_translation(tcert, tcert.tau_G.opens)
                if rep.verdict != "not-applicable":
                    at_e = [o for o in opens_g if e in o]
                    for x in g:
                        nx = frozenset.intersection(*(o for o in opens if x in o))
                        moved = [_product(rows, {x}, o) for o in at_e]
                        assert all(x in m for m in moved)
                        met = (all(m in opens for m in moved)
                               and any(m <= nx for m in moved))
                        assert rep.clause(f"base-at-{x}").verdict == (
                            "pass" if met else "fail")
                    seen["bases"] += 1
                for h, up_h in _closed_rough_subgroups(rows, blocks, g, up, inverse):
                    for w in opens_g:
                        if e in w and w <= h:
                            assert _product(rows, up_h, w) == up_h
                            seen["subgroup-unions"] += 1
    assert seen == {"trgs": 7614, "tau-G": 6928, "bases": 1267, "subgroup-unions": 11505}


def _coset_topologies(rows, g, e, size):
    """The N of each coset topology N(x) = x*K, for K a normal subgroup
    of the group G, found by trying every subset of G."""
    found = []
    for k in _subsets(g):
        if (e in k and _product(rows, k, k) <= k
                and all(_product(rows, {x}, k) == _product(rows, k, {x}) for x in g)):
            found.append(tuple(set_to_mask(_product(rows, {x}, k)) if x in g else 0
                               for x in range(size)))
    return sorted(found)


def test_trg_topologies_of_an_exact_rough_group_are_its_coset_topologies():
    """When G = upper(G), G is a group and N(e) is a normal subgroup K
    with N(x) = x*K, so `trg_topologies` lists exactly the coset
    topologies, in both codomain modes: over Z_2 to Z_6, Z_2 x Z_2 and
    S_3."""
    cases = 0
    for table in [cyclic_table(n) for n in (2, 3, 4, 5, 6)] + [table_of(KLEIN), table_of(S3)]:
        for cert in rough_groups(table):
            if cert.g_mask != cert.upper:
                continue
            rows, _, g, _, e, _ = _raw(cert)
            want = _coset_topologies(rows, g, e, table.universe.size)
            for mode in ("upper", "relative"):
                assert sorted(t.nbhd for t in trg_topologies(cert, mode)) == want
                cases += 1
    assert cases == 1626
