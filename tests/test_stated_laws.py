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

On a TRG, whose inverse map is continuous on (G, tau_G) and whose
product map is continuous from G x G, these follow as well:

- the inverse map is a homeomorphism of (G, tau_G), so it carries opens
  to opens and closeds to closeds;
- when G = upper(G), tau_G is tau, so both maps are continuous into
  tau in either codomain mode;
- a closure inside G is the closure in tau_G, which the inverse map
  carries onto itself when A = A^-1;
- when e is in G, a base of tau_G holds N_{tau_G}(e), the only open
  of tau_G that holds e inside it, and the product map's continuity at
  (g, e) puts g*N_{tau_G}(e) inside N_tau(g) for every g in G.

And the inverse of a bijection swaps each of its pairs, so composed
with the bijection it is the identity on either side.

Each fact is recomputed here from the rows of the table, with
frozensets, never through the library's scans: the group-level ones on
every rough group of Z_2 to Z_4, of Z_2 x Z_2 and of 400 seeded 3-point
tables, the ones that involve a topology on every TRG of Z_2 to Z_4 and
of Z_2 x Z_2, and the bijection one on every bijection between subsets
of 4 points.  `STATED` names, for every clause a check states by proof,
the test that recomputes it, and a guard keeps that table equal to the
code.  The last test pins the theorem for G = upper(G): the TRG
topologies are exactly the coset topologies of G's normal subgroups.
"""

import ast
import itertools
import random
from collections import Counter
from functools import cache

from roughtop.actions import check_AU_open
from roughtop.approx import Universe, product_universe
from roughtop.groups import upper_group_witness
from roughtop.report import serialize_report
from roughtop.topology import FiniteMap
from roughtop.trg import (
    check_closure_symmetric,
    check_G_equals_G_inverse,
    check_base_translation,
    check_open_iff_inverse_open,
    check_topological_group,
    check_translations,
    decide_trg,
    trg_topologies,
)

from conftest import (
    ROOT,
    cyclic_table,
    mask_to_set,
    oracle_close_family,
    oracle_is_continuous,
    oracle_is_group,
    oracle_product_map_clause,
    oracle_product_opens,
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
    """The inverse map is its own inverse.  On every TRG, each g*O of
    base-translation holds g, the clauses it still decides agree with
    the raw scan, every open W of tau_G with e in W inside a rough
    subgroup H gives upper(H)*W = upper(H), and `premise-upper-group`
    names the witness of the raw rows."""
    seen = dict.fromkeys(("trgs", "bases", "subgroup-unions"), 0)
    for table in (cyclic_table(2), cyclic_table(3), table_of(KLEIN)):
        for cert in rough_groups(table):
            rows, blocks, g, up, e, inverse = _raw(cert)
            u = cert.space.universe
            pairs = sorted(inverse.items())
            assert sorted((y, x) for x, y in pairs) == pairs
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
    assert seen == {"trgs": 7614, "bases": 1267, "subgroup-unions": 11505}


@cache
def _opens(carrier: int, nbhd) -> frozenset:
    """The opens of the topology whose N(p) are `nbhd`, found by closing
    the N(p) under pairwise unions and intersections."""
    return frozenset(oracle_close_family(carrier, set(nbhd) - {0}))


@cache
def _closure(carrier: int, nbhd, a: frozenset) -> frozenset:
    """The least closed set of that topology holding A: the carrier
    less every open that misses A."""
    miss = [mask_to_set(o) for o in _opens(carrier, nbhd) if not mask_to_set(o) & a]
    return mask_to_set(carrier).difference(*miss)


@cache
def _product_opens(carrier: int, nbhd, size: int) -> tuple[int, ...]:
    """The opens of the product of that topology with itself."""
    opens = _opens(carrier, nbhd)
    return oracle_product_opens(opens, carrier, opens, carrier, size)


def test_continuity_laws_hold_on_every_trg_of_z2_to_z4_and_the_klein_group():
    """On every TRG, in both codomain modes, the two continuity
    conditions give what five checks state: inversion carries the opens
    of tau_G to opens and its closeds to closeds; when G = upper(G),
    the product map is continuous from G x G into tau; every rough
    symmetric A whose closure stays in G has a symmetric closure; and,
    when e is in G, the base at e of a base of tau_G holds N_{tau_G}(e),
    which g translates inside N_tau(g) for every g in G, so some
    translated member fits inside every open holding g, which
    base-translation no longer scans for.  Each is recomputed from the
    rows and the opens closed up from N(p), the fit with two bases:
    every open of tau_G and the N_{tau_G}(p).  Each clause stated for
    the first four prints pass.  A topology that is a TRG in both modes
    gives one certificate, checked once."""
    seen = dict.fromkeys(("trgs", "exact", "certificates", "closure-in-G",
                          "closure-escapes", "translates-fit"), 0)
    for table in [cyclic_table(n) for n in (2, 3, 4)] + [table_of(KLEIN)]:
        for cert in rough_groups(table):
            rows, _, g, up, e, inverse = _raw(cert)
            u = cert.space.universe
            g_mask, up_mask = set_to_mask(g), set_to_mask(up)
            symmetric = [a for a in _subsets(g) if {inverse[x] for x in a} == a]
            checked = set()
            for mode in ("upper", "relative"):
                for tau in trg_topologies(cert, mode):
                    seen["trgs"] += 1
                    seen["exact"] += up == g
                    if tau.nbhd in checked:
                        continue
                    checked.add(tau.nbhd)
                    seen["certificates"] += 1
                    tcert = decide_trg(cert, tau, mode)[1]
                    opens = _opens(up_mask, tau.nbhd)
                    open_sets = [mask_to_set(o) for o in opens]
                    opens_g = {v & g for v in open_sets}
                    closeds_g = {g - v for v in opens_g}
                    masks_g = [set_to_mask(v) for v in opens_g]
                    assert oracle_is_continuous(cert.inverse, u, masks_g,
                                                u, masks_g).verdict == "pass"
                    assert all({inverse[x] for x in v} in opens_g for v in opens_g)
                    assert all({inverse[x] for x in c} in closeds_g for c in closeds_g)
                    assert check_translations(tcert, min(g)).clause(
                        "inverse-homeomorphism").verdict == "pass"
                    assert serialize_report(check_open_iff_inverse_open(tcert)) == (
                        "PASS open-inverse\n  open-sets: pass\n  closed-sets: pass\n")
                    if up == g:
                        prod = _product_opens(up_mask, tau.nbhd, u.size)
                        assert oracle_product_map_clause(
                            cert, product_universe(u, u), prod, u, opens).verdict == "pass"
                        assert serialize_report(check_topological_group(tcert)).splitlines()[
                            -2:] == ["  product-map-continuity: pass",
                                     "  inversion-continuity: pass"]
                    if e in g:
                        n_g = {x: frozenset.intersection(*(v for v in opens_g if x in v))
                               for x in g}
                        for base in (opens_g, set(n_g.values())):
                            assert all(v == frozenset().union(*(m for m in base if m <= v))
                                       for v in opens_g)
                            assert n_g[e] in {m for m in base if e in m}
                        for x in g:
                            n_x = frozenset.intersection(*(v for v in open_sets if x in v))
                            assert _product(rows, {x}, n_g[e]) <= n_x
                            seen["translates-fit"] += 1
                    for a in symmetric:
                        cl = _closure(up_mask, tau.nbhd, a)
                        rep = check_closure_symmetric(tcert, set_to_mask(a))
                        if cl <= g:
                            assert {inverse[x] for x in cl} == cl
                            assert serialize_report(rep) == (
                                "PASS closure-symmetric\n  closure-inside-G: pass  witness: "
                                f"cl(A) = {u.set_str(set_to_mask(cl))}\n"
                                "  closure-symmetric: pass\n")
                            seen["closure-in-G"] += 1
                        else:
                            assert rep.verdict == "not-applicable"
                            seen["closure-escapes"] += 1
    assert seen == {"trgs": 23921, "exact": 358, "certificates": 13722,
                    "closure-in-G": 18179, "closure-escapes": 20869,
                    "translates-fit": 11152}


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


def test_the_inverse_of_a_bijection_swaps_its_pairs():
    """For every bijection f between two subsets of 4 points, f^-1 maps
    each f(x) back to x, so f^-1 after f is the identity on the source
    and f after f^-1 the identity on the target: trg-homeo's three
    composite-identity clauses hold once `bijective` passes."""
    u = Universe(tuple("abcd"))
    count = 0
    for dom in range(1 << 4):
        xs = sorted(mask_to_set(dom))
        for cod in range(1 << 4):
            if cod.bit_count() != len(xs):
                continue
            for ys in itertools.permutations(sorted(mask_to_set(cod))):
                fmap = FiniteMap(u, u, dom, cod, tuple(zip(xs, ys)))
                inverse = fmap.inverse()
                assert dict(inverse.pairs) == dict(zip(ys, xs))
                assert [inverse.apply(fmap.apply(x)) for x in xs] == xs
                assert [fmap.apply(inverse.apply(y)) for y in ys] == list(ys)
                count += 1
    assert count == 209


CONTINUITY = "test_continuity_laws_hold_on_every_trg_of_z2_to_z4_and_the_klein_group"
GROUP_LEVEL = "test_group_level_laws_hold_on_every_probe_rough_group"
# every clause a check states by proof, `law(name, None)`, as
# "function: name" with each f-string field written *, and the test
# here that recomputes it
STATED = {
    "check_translations: *-injective": GROUP_LEVEL,
    "check_translations: inverse-homeomorphism": CONTINUITY,
    "check_G_equals_G_inverse: G-equals-G-inverse": GROUP_LEVEL,
    "check_open_iff_inverse_open: open-sets": CONTINUITY,
    "check_open_iff_inverse_open: closed-sets": CONTINUITY,
    "check_topological_group: group-axioms": GROUP_LEVEL,
    "check_topological_group: product-map-continuity": CONTINUITY,
    "check_topological_group: inversion-continuity": CONTINUITY,
    "check_closure_symmetric: closure-symmetric": CONTINUITY,
    "check_subgroup_open: union-is-upper-H": GROUP_LEVEL,
    "verify_trg_homeomorphism: composite-identity-on-*":
        "test_the_inverse_of_a_bijection_swaps_its_pairs",
}


def _clause_name(node) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    assert isinstance(node, ast.JoinedStr), ast.unparse(node)
    return "".join(v.value if isinstance(v, ast.Constant) else "*" for v in node.values)


def _stated_laws(node, function=None):
    """Each `law(name, None)` call under the node, as "function: name",
    keyed by the innermost function that holds it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "law":
        args = {**dict(enumerate(node.args)), **{k.arg: k.value for k in node.keywords}}
        witness = args.get(1, args.get("witness"))
        if isinstance(witness, ast.Constant) and witness.value is None:
            yield f"{function}: {_clause_name(args.get(0, args.get('name')))}"
    for child in ast.iter_child_nodes(node):
        yield from _stated_laws(child, function)


def test_every_clause_stated_by_proof_has_a_test_that_recomputes_it():
    found = [law for path in sorted((ROOT / "src" / "roughtop").glob("*.py"))
             for law in _stated_laws(ast.parse(path.read_text(encoding="utf-8")))]
    assert sorted(found) == sorted(STATED)
    assert all(callable(globals().get(test)) for test in STATED.values())
