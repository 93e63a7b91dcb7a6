"""Finite topologies: verification, generation, products, maps, enumeration."""

import random
import time

import pytest

import roughtop.topology as topology
from roughtop import Universe, parse_spec
from roughtop.errors import CapExceededError, InputError
from roughtop.report import serialize_report
from roughtop.topology import (
    FiniteMap,
    FiniteTopology,
    base_at,
    canonical_family,
    closure,
    enumerate_topologies,
    first_unmet,
    generate_topology,
    is_continuous,
    product_topology,
    subspace_topology,
    verify_base,
    verify_topology,
)
from roughtop.trg import verify_trg

from conftest import (
    identity_map,
    oracle_all_topologies,
    oracle_close_family,
    oracle_is_topology,
)


@pytest.fixture
def u3():
    return Universe(("0", "1", "2"))


@pytest.fixture
def topA(u3):
    return generate_topology(u3, 0b111, (0, 0b010, 0b100, 0b110, 0b111))


def test_verify_topology_passes_fixture(ws_s4):
    u = ws_s4.universes["UB"]
    top = ws_s4.topologies["tauB"][1]
    assert len(top.opens) == 5
    assert verify_topology(u, top.carrier, top.opens) == top


def test_verify_topology_union_witness(ws_s4):
    u = ws_s4.universes["UB"]
    top = ws_s4.topologies["tauB"][1]
    drop = u.mask_of(["1", "(12)", "(123)", "(132)"])
    with pytest.raises(InputError) as err:
        verify_topology(u, top.carrier, [m for m in top.opens if m != drop])
    assert str(err.value) == (
        "family is not a topology: union of {(12)} and {1,(123),(132)} = "
        "{1,(12),(123),(132)} is not in the family")


def test_verify_topology_missing_empty_set(ws_s4):
    u = ws_s4.universes["UB"]
    top = ws_s4.topologies["tauB"][1]
    with pytest.raises(InputError) as err:
        verify_topology(u, top.carrier, [m for m in top.opens if m != 0])
    assert str(err.value) == (
        "family is not a topology: the empty set is missing from the family")


def _best_of_3(call) -> float:
    """The least wall time of three calls, each raising InputError or not."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        try:
            call()
        except InputError:
            pass
        times.append(time.perf_counter() - start)
    return min(times)


def test_verify_topology_stops_at_a_missing_empty_set_or_carrier():
    """Of the 4,096 subsets of 12 points, the family without the empty
    set or without the carrier fails at that axiom, and the family
    without {0} or without {0,1} at the first open of the class walk
    that is no member: each in less than 10 times what the whole
    family, a topology, takes to pass."""
    u = Universe(tuple(map(str, range(12))))
    full = range(1 << 12)
    passing = _best_of_3(lambda: verify_topology(u, u.all_mask, full))
    for drop, why in ((0, "the empty set is missing from the family"),
                      (u.all_mask, "the carrier {0,1,2,3,4,5,6,7,8,9,10,11} is missing"),
                      (0b1, "intersection of {0,1} and {0,2} = {0} is not in the family"),
                      (0b11, "union of {0} and {1} = {0,1} is not in the family")):
        family = [m for m in full if m != drop]
        with pytest.raises(InputError) as err:
            verify_topology(u, u.all_mask, family)
        assert str(err.value) == f"family is not a topology: {why}"
        assert _best_of_3(lambda: verify_topology(u, u.all_mask, family)) < 10 * passing


def _near_topology(rng, u):
    """A topology generated from a random subbasis on the whole of u,
    and a family near it that is no topology: its opens with one or two
    left out (never the empty set or the carrier), or with one set
    that is not open added.  On fewer than 3 points every family that
    holds the empty set and the carrier is a topology."""
    n = u.size
    while True:
        subbasis = [sum(1 << p for p in rng.sample(range(n), rng.randint(1, n)))
                    for _ in range(rng.randint(0, 2 * n))]
        top = generate_topology(u, u.all_mask, subbasis)
        opens = list(top.opens)
        inner = opens[1:-1]
        if rng.random() < 0.5 and inner:
            drop = rng.sample(inner, min(rng.randint(1, 2), len(inner)))
            family = [o for o in opens if o not in drop]
        else:
            closed = [m for m in range(1 << n) if not top.is_open(m)]
            if not closed:
                continue
            family = opens + [rng.choice(closed)]
        # each member is open in the topology the family generates, so
        # the family is one exactly when it has as many members as opens
        if generate_topology(u, u.all_mask, family).count_opens() > len(family):
            return opens, family


def test_verify_topology_fails_near_a_topology_as_fast_as_it_passes():
    """Seeded families near a topology on 3 to 12 points each fail in
    less than 10 times what that topology takes to pass."""
    rng = random.Random(20261021)
    for _ in range(150):
        u = Universe(tuple(map(str, range(rng.randint(3, 12)))))
        opens, family = _near_topology(rng, u)
        with pytest.raises(InputError, match="^family is not a topology: "):
            verify_topology(u, u.all_mask, family)
        passing = _best_of_3(lambda: verify_topology(u, u.all_mask, opens))
        assert _best_of_3(lambda: verify_topology(u, u.all_mask, family)) < 10 * passing, (
            u.size, family)


def test_verify_topology_intersection_witness():
    u = Universe(("a", "b", "c"))
    with pytest.raises(InputError) as err:
        verify_topology(u, 0b111, [0, u.mask_of(["a", "b"]), u.mask_of(["b", "c"]), 0b111])
    assert str(err.value) == (
        "family is not a topology: intersection of {a,b} and {b,c} = {b} "
        "is not in the family")


def test_verify_topology_rejects_stray_member(u3):
    with pytest.raises(InputError, match=r"not a subset of the carrier"):
        verify_topology(u3, 0b110, [0, 0b110, 0b001])


def test_generate_topology_trivial(u3):
    top = generate_topology(u3, 0b111, [])
    assert top.opens == (0, 0b111)


def test_generate_topology_idempotent(topA, u3):
    again = generate_topology(u3, 0b111, topA.opens)
    assert again.opens == topA.opens


def test_generate_matches_closure_oracle_on_rectangles(ws_product):
    """Rectangle subbasis over the pair universe closes to the fixture family."""
    u = ws_product.universes["UP"]
    top = ws_product.topologies["tauP"][1]
    tau_a = [0, 0b010, 0b100, 0b110, 0b111]
    rects = []
    for m1 in tau_a:
        for m2 in tau_a:
            rect = 0
            for i in range(3):
                for j in range(3):
                    if (m1 >> i) & 1 and (m2 >> j) & 1:
                        rect |= 1 << (i * 3 + j)
            rects.append(rect)
    gen = generate_topology(u, u.all_mask, rects)
    assert gen.opens == top.opens
    assert len(gen.opens) == 48
    oracle = oracle_close_family(u.all_mask, rects)
    assert set(gen.opens) == set(oracle)
    assert oracle_is_topology(u.all_mask, gen.opens)


def test_generate_topology_counts_past_the_old_cap():
    """No cap on generated topologies: the discrete topology on 17
    points is counted, not listed, at exactly 2^17 opens."""
    u = Universe(tuple(str(i) for i in range(17)))
    top = generate_topology(u, (1 << 17) - 1, [1 << i for i in range(17)])
    assert top.count_opens() == 1 << 17
    assert top.nbhd == tuple(1 << i for i in range(17))


def test_the_count_of_opens_is_the_number_listed():
    """count_opens() is the number of opens the class walk lists, on
    every topology of 4 points and on random ones of up to 9 points."""
    rng = random.Random(24)
    u = Universe(tuple(str(i) for i in range(9)))
    tops = list(enumerate_topologies(u, 0b1111))
    for _ in range(200):
        n = rng.randint(5, 9)
        tops.append(generate_topology(u, (1 << n) - 1, [
            rng.randrange(1 << n) for _ in range(rng.randint(0, 2 * n))]))
    assert len(tops) == 355 + 200
    for top in tops:
        assert top.count_opens() == len(top.opens), top.nbhd


def test_subspace_topology(topA, u3, ws_s4):
    sub = subspace_topology(topA, 0b011)
    assert sub.carrier == 0b011
    assert sub.opens == (0, 0b010, 0b011)
    topB = ws_s4.topologies["tauB"][1]
    uB = ws_s4.universes["UB"]
    w = uB.mask_of(["1", "(12)", "(123)", "(132)"])
    subB = subspace_topology(topB, w)
    assert " ".join(uB.set_str(m) for m in subB.opens) == (
        "{} {(12)} {1,(123),(132)} {1,(12),(123),(132)}")
    assert subspace_topology(topA, topA.carrier) == topA


def test_subspace_requires_subset(topA):
    with pytest.raises(InputError):
        subspace_topology(topA, 0b1011)


def test_product_topology_values(topA, u3, ws_product):
    prod = product_topology(topA, topA)
    assert len(prod.opens) == 48
    assert canonical_family(prod.opens) == ws_product.topologies["tauP"][1].opens
    indiscrete = generate_topology(u3, 0b111, (0, 0b111))
    assert len(product_topology(indiscrete, indiscrete).opens) == 2
    discrete = generate_topology(u3, 0b111, tuple(range(8)))
    assert len(product_topology(discrete, discrete).opens) == 512


def test_product_topology_past_the_old_cap():
    """No cap on product carriers: the 9 x 9 discrete product has 81
    points and exactly 2^81 opens."""
    u9 = Universe(tuple(str(i) for i in range(9)))
    big = generate_topology(u9, (1 << 9) - 1, tuple(range(1 << 9)))
    prod = product_topology(big, big)
    assert prod.carrier.bit_count() == 81
    assert prod.count_opens() == 1 << 81


def test_closure_values(topA, u3):
    assert u3.set_str(closure(topA, 0b100)) == "{0,2}"
    assert closure(topA, 0) == 0


def test_finite_map_validation(u3):
    with pytest.raises(InputError, match=r"not total: missing \{2\}"):
        FiniteMap(u3, u3, 0b111, 0b111, ((0, 0), (1, 1)))
    with pytest.raises(InputError, match=r"outside its domain"):
        FiniteMap(u3, u3, 0b011, 0b111, ((0, 0), (1, 1), (2, 2)))
    with pytest.raises(InputError, match=r"escapes its codomain"):
        FiniteMap(u3, u3, 0b011, 0b001, ((0, 0), (1, 1)))
    with pytest.raises(InputError, match=r"assigns an element twice"):
        FiniteMap(u3, u3, 0b001, 0b111, ((0, 0), (0, 1)))


def test_finite_map_operations(u3):
    swap = FiniteMap(u3, u3, 0b111, 0b111, ((0, 0), (1, 2), (2, 1)))
    assert swap.apply(1) == 2
    assert swap.image_mask() == 0b111
    assert swap.preimage(0b010) == 0b100
    assert swap.is_bijective()
    assert swap.inverse() == swap
    const = FiniteMap(u3, u3, 0b111, 0b111, ((0, 0), (1, 0), (2, 0)))
    assert not const.is_injective()
    with pytest.raises(InputError, match=r"not bijective"):
        const.inverse()


def test_is_continuous(topA, u3):
    ident = identity_map(u3, 0b111)
    assert is_continuous(ident, topA, topA) is None
    const = FiniteMap(u3, u3, 0b111, 0b111, ((0, 0), (1, 0), (2, 0)))
    assert is_continuous(const, topA, topA) is None
    indiscrete = generate_topology(u3, 0b111, (0, 0b111))
    assert is_continuous(ident, indiscrete, topA) == (
        "open {1} has preimage {1}, which is not open")
    half = FiniteMap(u3, u3, 0b011, 0b111, ((0, 0), (1, 1)))
    with pytest.raises(InputError, match=r"domain differs"):
        is_continuous(half, topA, topA)


@pytest.mark.parametrize("carrier, nbhd, why", [
    # 0 is not in its own neighbourhood
    (0b011, (0b010, 0b011, 0), r"N\(0\) does not contain 0"),
    # N(0) holds 2, outside the carrier
    (0b011, (0b101, 0b010, 0), r"N\(0\) is not a subset of the carrier"),
    # 1 lies in N(0), but 2 lies in N(1) and not in N(0)
    (0b111, (0b011, 0b110, 0b100), r"N\(0\) contains 1 but not all of N\(1\)"),
])
def test_finite_topology_rejects_neighbourhoods_of_no_preorder(u3, carrier, nbhd, why):
    with pytest.raises(InputError, match=why):
        FiniteTopology(u3, carrier, nbhd)


@pytest.mark.parametrize("carrier, nbhd, why", [
    # one neighbourhood short of the universe
    (0b011, (0b001, 0b010), r"2 neighbourhoods given for the 3 elements"),
    (0b011, (0b001, 0b010, 0, 0), r"4 neighbourhoods given for the 3 elements"),
    # 1 lies outside the carrier {0}, yet N(1) = {1}
    (0b001, (0b001, 0b010, 0), r"1 lies outside the carrier, but N\(1\) is not empty"),
    # the carrier holds a fourth point the universe lacks
    (0b1001, (0b001, 0, 0), r"carrier is not a subset of the universe"),
])
def test_finite_topology_rejects_neighbourhoods_off_the_carrier(u3, carrier, nbhd, why):
    with pytest.raises(InputError, match=why):
        FiniteTopology(u3, carrier, nbhd)


@pytest.fixture
def two_chains():
    """0 < 1 and 2 < 3: N = {0}, {0,1}, {2}, {2,3}, in class order."""
    u = Universe(("0", "1", "2", "3"))
    return FiniteTopology(u, 0b1111, (0b0001, 0b0011, 0b0100, 0b1100))


def test_first_unmet_names_the_least_failing_neighbourhood(two_chains):
    # the first unmet pair streamed has the larger N(d): 0 is not in
    # N(3) = {2,3}; then 2 is not in N(1) = {0,1}, the witness
    needs = [(1, 0b0001), (3, 0b0001), (3, 0b0100), (1, 0b0100)]
    assert first_unmet(two_chains, needs) == 0b0011
    assert first_unmet(two_chains, needs[:3]) == 0b1100
    assert first_unmet(two_chains, [needs[0], needs[2]]) is None


def test_first_unmet_reads_only_points_of_the_carrier(two_chains):
    sub = subspace_topology(two_chains, 0b0111)
    # 3 lies outside the carrier: it requires nothing
    assert first_unmet(sub, [(3, 0b0111)]) is None
    # a value outside the carrier under one inside never holds
    assert first_unmet(sub, [(3, 0b0111), (2, 0b1000)]) == 0b0100


def test_first_unmet_of_no_pairs_is_none(two_chains):
    assert first_unmet(two_chains, []) is None
    assert first_unmet(two_chains, iter(())) is None


def test_verify_base(topA, u3):
    assert verify_base(topA, [0b010, 0b100, 0b111]) is None
    assert verify_base(topA, [0b010, 0b100]) == (
        "open {0,1,2} is not a union of members; members inside it cover only {1,2}")
    assert verify_base(topA, [0b111]) == (
        "open {1} is not a union of members; members inside it cover only {}")
    assert verify_base(topA, [0b010, 0b100, 0b101, 0b111]) == "member {0,2} is not open"


@pytest.mark.parametrize("members, outside", [
    ([0b001, 0b100], "{2}"), ([0b100, 0b001], "{2}"), ([0b001, -1], "{0,1,2}")])
def test_verify_base_holds_every_member_to_the_carrier_first(topA, members, outside):
    """{0} is no open of the subspace on {0,1}, but {2} lies outside
    it: the input error comes first, whatever the members' order.  A
    negative mask lies outside every carrier."""
    sub = subspace_topology(topA, 0b011)
    with pytest.raises(InputError) as exc:
        verify_base(sub, members)
    assert str(exc.value) == f"base member {outside} is not a subset of the carrier {{0,1}}"
    assert verify_base(sub, [0b001]) == "member {0} is not open"


def test_base_at(u3):
    members = [0b010, 0b100, 0b110, 0b111]
    assert base_at(members, 1) == (0b010, 0b110, 0b111)
    assert base_at(members, 0) == (0b111,)


@pytest.fixture(scope="module")
def six_point_topologies():
    """One 6-point enumeration, shared by the tests that read it."""
    u = Universe(tuple("abcdef"))
    return enumerate_topologies(u, u.all_mask)


def test_enumerate_topologies_counts(six_point_topologies):
    for n, count in ((0, 1), (1, 1), (2, 4), (3, 29), (4, 355), (5, 6942), (6, 209527)):
        u = Universe(tuple(str(i) for i in range(n)))
        tops = six_point_topologies if n == 6 else enumerate_topologies(u, (1 << n) - 1)
        assert len(tops) == count
        opens = [t.opens for t in tops]
        assert all(a < b for a, b in zip(opens, opens[1:]))


def test_preorder_keys_with_empty_rules_are_the_unruled_keys():
    """The unruled counts are pinned by test_enumerate_topologies_counts."""
    for n in range(7):
        assert topology._preorder_keys(n, [()] * n) == topology._preorder_keys(n)


@pytest.mark.parametrize("k", range(8))
def test_level_tables_are_built_once_and_read_as_their_definitions(k):
    tables = topology._level_tables(k)
    assert topology._level_tables(k) is tables
    assert tables == topology._level_tables.__wrapped__(k)
    not_inside, not_above, add_k, raise_u = tables
    masks = range(1 << k)
    for m in masks:
        assert set(not_inside[m]) == {x for x in masks if x | m != m}
        assert set(not_above[m]) == {x for x in masks if x & m != m}
    assert list(add_k) == [x | 1 << k for x in range(256)]
    for u in masks:
        assert raise_u[u].to_bytes(k, "little") == bytes(
            1 << k if u >> q & 1 else 0 for q in range(k))


def _relations(key: bytes, n: int) -> int:
    """The relations int of a key: byte q of its last n bytes is N(q)."""
    return int.from_bytes(key[len(key) - n:], "big")


def _random_rules(rnd, n: int, count: int, never: float) -> tuple[list, list[list]]:
    """`count` random implications on n points, as relations (a, x, c, d)
    and as rules of `_preorder_keys`, each filed at the level of its
    highest point; each forbids its if_bit outright (c = None) with
    probability `never`."""
    relations, rules = [], [[] for _ in range(n)]
    for _ in range(count):
        a, x, c, d = (rnd.randrange(n) for _ in range(4))
        if rnd.random() < never:
            c = None
        then = 1 << 8 * n if c is None else 1 << 8 * d + c
        level = max(a, x) if c is None else max(a, x, c, d)
        relations.append((a, x, c, d))
        rules[level].append((8 * x + a, then))
    return relations, rules


def test_preorder_keys_with_rules_drop_exactly_the_preorders_that_break_one():
    """Random implications against filtering every preorder by all of
    them at once: fifteen sparse sets at each of 3, 4 and 5 points, and
    two dense sets at 6 points, the second of which also forbids 2 <= 1.
    Stated as relations on the points of a carrier that skips point 2
    of a universe of n + 2 (0b1011 of 5 points at n = 3),
    `enumerate_topologies` keeps the same preorders."""
    rnd = random.Random(11)
    cases = [(n, *_random_rules(rnd, n, rnd.randint(1, 4), 0.2))
             for n in (3, 4, 5) for _ in range(15)]
    dense = [_random_rules(rnd, 6, 10, 0.0) for _ in range(2)]
    dense[1][0].append((2, 1, None, 0))
    dense[1][1][2].append((8 * 1 + 2, 1 << 8 * 6))
    cases += [(6, *rel_rules) for rel_rules in dense]
    every = {}
    for n, relations, rules in cases:
        if n not in every:
            every[n] = topology._preorder_keys(n)
        flat = [r for level in rules for r in level]
        want = [k for k in every[n] if topology._keeps(_relations(k, n), flat)]
        assert topology._preorder_keys(n, rules) == want
        points = [p for p in range(n + 1) if p != 2]
        u = Universe(tuple("abcdefgh"[:n + 2]))
        tops = enumerate_topologies(u, sum(1 << p for p in points), [
            (points[a], points[x], None if c is None else points[c], points[d])
            for a, x, c, d in relations])
        assert list(tops.local_opens()[0]) == sorted(k[:len(k) - n] for k in want)


def test_class_table_matches_the_per_point_definition_on_every_small_topology():
    """Each entry is a distinct N(p) in ascending order, the points whose
    neighbourhood it is, and the classes whose N lies inside it."""
    u = Universe(tuple("abcdefg"))
    checked = 0
    for carrier in (0, 0b1, 0b101, 0b1011, 0b100_1011, 0b1_1111, 0b101_1011):
        for top in enumerate_topologies(u, carrier):
            points = [p for p in range(u.size) if carrier >> p & 1]
            distinct = sorted({top.nbhd[p] for p in points})
            want = tuple(
                (n, sum(1 << p for p in points if top.nbhd[p] == n),
                 sum(1 << j for j, m in enumerate(distinct) if m & ~n == 0))
                for n in distinct)
            assert top.classes == want
            checked += 1
    assert checked == 1 + 1 + 4 + 29 + 355 + 6942 + 6942


def test_enumerate_topologies_carry_the_opens_of_their_neighbourhoods(six_point_topologies):
    u = Universe(tuple("abcde"))
    five = enumerate_topologies(u, u.all_mask)
    six = six_point_topologies
    picked = random.Random(9).sample(range(len(six)), 2000)
    for top in [*five, *(six[i] for i in picked)]:
        assert top.opens == FiniteTopology(top.universe, top.carrier, top.nbhd).opens


def test_enumerate_topologies_reads_like_a_tuple():
    u = Universe(("0", "1", "2"))
    tops = enumerate_topologies(u, 0b111)
    assert tops[-1] == tuple(tops)[-1] == tops[len(tops) - 1]
    assert tops[1:3] == tuple(tops)[1:3]
    assert tops.index(tops[5]) == 5 and tops[5] in tops


def test_enumerate_topologies_build_the_fields_of_the_constructor():
    """A read sets exactly the fields the constructor sets, plus the opens,
    so a field added to FiniteTopology cannot be missed here."""
    u = Universe(tuple(str(i) for i in range(12)))
    for carrier in (0b111, 0b1001_0000_0001):
        for top in enumerate_topologies(u, carrier):
            ref = FiniteTopology(u, carrier, top.nbhd)
            assert top == ref
            assert set(vars(top)) == set(vars(ref)) | {"opens"}
            assert top.opens == ref.opens


def test_enumerate_topologies_matches_oracle():
    u = Universe(("0", "1", "2"))
    tops = enumerate_topologies(u, 0b111)
    assert {t.opens for t in tops} == set(oracle_all_topologies(3))
    assert tops[0].opens == tuple(range(8))


def test_enumerate_topologies_partial_carrier():
    u = Universe(("0", "1", "2", "3"))
    assert len(enumerate_topologies(u, 0b0011)) == 4
    big = Universe(tuple(str(i) for i in range(12)))
    tops = enumerate_topologies(big, 0b1001_0000_0001)
    assert len(tops) == 29
    assert tops[0].nbhd == (1,) + (0,) * 7 + (1 << 8,) + (0,) * 2 + (1 << 11,)
    assert tops[-1].opens == (0, 0b1001_0000_0001)


def test_enumerate_topologies_cap():
    u = Universe(tuple(str(i) for i in range(7)))
    with pytest.raises(CapExceededError, match=r"at most 6 points, got 7"):
        enumerate_topologies(u, 0b1111111)


def test_a_declared_topology_computes_the_neighbourhoods_once(monkeypatch):
    calls = []
    nbhds = topology._nbhds
    monkeypatch.setattr(topology, "_nbhds", lambda *a: calls.append(a) or nbhds(*a))
    ws = parse_spec("universe U: 0 1 2\ntopology tau on U: {0 1 2} {} {1} {1 2} {2}\n")
    assert ws.topologies["tau"][1].nbhd == (0b111, 0b010, 0b100)
    assert len(calls) == 1


def test_verify_topology_reads_the_neighbourhoods_of_every_small_topology():
    u = Universe(tuple(str(i) for i in range(6)))
    for carrier in (0b1111, 0b101101):
        for top in enumerate_topologies(u, carrier):
            assert verify_topology(u, carrier, reversed(top.opens)).nbhd == top.nbhd


def test_verify_topology_checks_the_carrier_first(u3):
    for carrier in (-1, 0b1000):
        with pytest.raises(InputError, match=r"carrier is not a subset of the universe"):
            verify_topology(u3, carrier, (0, 0b1000))


def test_finite_topology_canonicalizes_and_validates(u3):
    top = generate_topology(u3, 0b111, (0b111, 0, 0b010, 0b110, 0b100))
    assert top.opens == (0, 0b010, 0b100, 0b110, 0b111)
    assert top.is_open(0b110) and not top.is_open(0b001)
    with pytest.raises(InputError, match=r"not a subset of the carrier"):
        verify_topology(u3, 0b011, (0, 0b011, 0b100))
    with pytest.raises(InputError, match=r"^family member \{2\} is not a subset "
                       r"of the carrier \{0,1\}$"):
        generate_topology(u3, 0b011, (0b011, 0b100))
    with pytest.raises(InputError, match=r"^family is not a topology: union of"):
        verify_topology(u3, 0b111, (0, 0b010, 0b100, 0b111))


def test_report_serialization_shape(fixa_cert, ws_zmod3):
    rep, _ = verify_trg(fixa_cert, ws_zmod3.topologies["tauA"][1])
    text = serialize_report(rep)
    assert text.splitlines()[0] == "PASS trg"
    assert text.endswith("stat tau-opens=5\n")
    js = serialize_report(rep, fmt="json")
    import json

    payload = json.loads(js)
    assert payload["verdict"] == "pass"
    assert payload["stats"] == {"product-opens": 16, "tau-G-opens": 4, "tau-opens": 5}
