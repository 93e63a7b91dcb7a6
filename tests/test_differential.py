"""Differential tests: the neighbourhood-based library against the
explicit-open oracles in conftest, exhaustively on small carriers.

Reports are compared whole (verdict, every clause witness, every stat),
so a fast path that reaches the right verdict with a different witness
fails here.
"""

import argparse
import itertools
import json
import math
import random
import sys
from collections import Counter

import pytest

import roughtop.cli as cli
import roughtop.trg
from roughtop import ApproxSpace, Partition, RoughSpace, Universe, topology
from roughtop.actions import is_rough_homogeneous, verify_rough_action
from roughtop.approx import product_mask, product_universe
from roughtop.errors import InputError
from roughtop.groups import (
    CayleyTable,
    RoughGroupCert,
    RoughHom,
    _identities,
    associativity_witness,
    escape_witness,
    inverses_in,
    is_rough_normal,
    rough_kernel,
    set_product,
    verify_rough_group,
    verify_rough_homomorphism,
    verify_rough_subgroup,
)
from roughtop.report import premise
from roughtop.topology import (
    FiniteMap,
    enumerate_topologies,
    generate_topology,
    is_continuous,
    product_topology,
    subspace_topology,
    verify_topology,
)
from roughtop.trg import (
    TRGCert,
    decide_trg,
    find_symmetric_square_nbhd,
    symmetric_square_nbhds,
    trg_topologies,
    verify_trg,
)

from conftest import (
    FIXDIR,
    cert_of,
    cyclic_table,
    mask_to_set,
    run_cli,
    set_to_mask,
    oracle_all_topologies,
    oracle_associativity_witness,
    oracle_compatibility,
    oracle_escape_witness,
    oracle_identities,
    oracle_enumerate_topologies,
    oracle_enumerate_topologies_report,
    oracle_generate_opens,
    oracle_homogeneity_orbits,
    oracle_is_continuous,
    oracle_is_rough_homogeneous,
    oracle_product_opens,
    oracle_verify_topology,
    oracle_verify_trg,
    rough_groups,
)


def _cyclic_cert(n: int, g_mask: int, blocks):
    u = Universe(tuple(str(i) for i in range(n)))
    table = CayleyTable.from_names(
        u, [[str((x + y) % n) for y in range(n)] for x in range(n)])
    space = ApproxSpace(u, Partition(u, tuple(blocks)), table)
    _, cert = verify_rough_group(space, g_mask)
    assert cert is not None
    return cert


def _topologies_on(u: Universe, carrier: int):
    """Every topology on the carrier as an explicit family, relabelled
    from the oracle's enumeration on range(n)."""
    points = tuple(p for p in range(u.size) if carrier >> p & 1)
    for fam in oracle_all_topologies(len(points)):
        yield tuple(sorted(
            sum(1 << points[i] for i in range(len(points)) if m >> i & 1)
            for m in fam))


def _cyclic_trg(n: int):
    """Z_n with G = Z_n, certified on the discrete topology."""
    cert = _cyclic_cert(n, (1 << n) - 1, tuple(1 << i for i in range(n)))
    u = cert.space.universe
    return decide_trg(cert, generate_topology(u, u.all_mask, range(1 << n)))[1]


@pytest.fixture(scope="module")
def z4_families():
    u = Universe(("0", "1", "2", "3"))
    return list(_topologies_on(u, 0b1111))


TRG_CASES = {
    # Z_3 with G = {1, 2} inside the upper approximation {0, 1, 2}
    "zmod3-fixture": lambda ws: cert_of(ws["zmod3"], "TA", "PA", "GA"),
    # Z_3 with G the whole group
    "zmod3-full": lambda ws: _cyclic_cert(3, 0b111, (1, 2, 4)),
    # Z_4 with G = {0, 1, 3} and upper approximation Z_4
    "zmod4-fixture": lambda ws: cert_of(ws["zmod4"], "T4", "P4", "G4"),
    # Z_4 with G = {1, 3}, the identity outside G
    "zmod4-odd": lambda ws: _cyclic_cert(4, 0b1010, (0b0011, 0b1100)),
    # Z_4 with G the whole group: G x G has 16 points
    "zmod4-full": lambda ws: _cyclic_cert(4, 0b1111, (1, 2, 4, 8)),
}


@pytest.mark.parametrize("case", sorted(TRG_CASES))
@pytest.mark.parametrize("mode", ["upper", "relative"])
def test_verify_trg_matches_oracle_on_every_topology(case, mode, ws_zmod3, ws_zmod4):
    cert = TRG_CASES[case]({"zmod3": ws_zmod3, "zmod4": ws_zmod4})
    u = cert.space.universe
    families = list(_topologies_on(u, cert.upper))
    assert len(families) == {3: 29, 4: 355}[cert.upper.bit_count()]
    verdicts = set()
    for fam in families:
        got, _ = verify_trg(cert, generate_topology(u, cert.upper, fam), mode)
        want = oracle_verify_trg(cert, fam, mode)
        assert got == want, fam
        verdicts.add(got.verdict)
    assert verdicts == {"pass", "fail"}


@pytest.mark.parametrize("case", ["zmod3-full", "zmod4-full"])
@pytest.mark.parametrize("mode", ["upper", "relative"])
def test_decide_trg_matches_verify_trg_without_the_counts(case, mode, ws_zmod3, ws_zmod4):
    cert = TRG_CASES[case]({"zmod3": ws_zmod3, "zmod4": ws_zmod4})
    u = cert.space.universe
    tops = enumerate_topologies(u, cert.upper)
    assert len(tops) == {3: 29, 4: 355}[cert.upper.bit_count()]
    for tau in tops:
        got, got_cert = decide_trg(cert, tau, mode)
        want, want_cert = verify_trg(cert, tau, mode)
        assert (got.check, got.verdict, got.clauses) == (
            want.check, want.verdict, want.clauses)
        assert got_cert == want_cert
        assert got.stats == ()
        assert dict(want.stats).keys() == {"tau-opens", "tau-G-opens", "product-opens"}


def _cyclic_rough_groups(n: int) -> list:
    """Every rough group of Z_n: each partition with each nonempty G."""
    return rough_groups(cyclic_table(n))


class _GivenGroup:
    """A command run whose --table, --partition and --group name `cert`."""

    name = "enumerate-topologies"

    def __init__(self, cert, mode: str):
        self.cert, self.universe = cert, cert.space.universe
        self.args = argparse.Namespace(max_size=4, codomain_topology=mode)

    def group(self):
        return self.cert


def test_topology_listing_matches_the_object_based_listing():
    """`enumerate topologies` on every rough group of Z_2 to Z_4, in
    both codomain modes, reports what listing one FiniteTopology per
    topology reports."""
    certs = [c for n in (2, 3, 4) for c in _cyclic_rough_groups(n)]
    assert len(certs) == 93
    for cert in certs:
        for mode in ("upper", "relative"):
            assert (cli._enumerate_topologies(_GivenGroup(cert, mode))
                    == oracle_enumerate_topologies_report(_GivenGroup(cert, mode)))


@pytest.mark.parametrize("mode, total", [("upper", 2940), ("relative", 3022)])
def test_trg_topologies_match_decide_trg_on_every_rough_group_of_z2_to_z4(mode, total):
    certs = [c for n in (2, 3, 4) for c in _cyclic_rough_groups(n)]
    assert len(certs) == 93
    found = 0
    for cert in certs:
        tops = enumerate_topologies(cert.space.universe, cert.upper)
        want = [(t.nbhd, t.opens) for t in tops if decide_trg(cert, t, mode)[0].passed]
        got = [(t.nbhd, t.opens) for t in trg_topologies(cert, mode)]
        assert got == want, (cert.space.partition, cert.g_mask)
        found += len(got)
    assert found == total


@pytest.mark.parametrize("mode", ["upper", "relative"])
def test_enumerate_topologies_on_the_cli_marks_what_decide_trg_decides(mode, ws_zmod4):
    code, out, _ = run_cli(
        "enumerate topologies --table T4 --partition P4 --group G4 --max-size 4 "
        f"--codomain-topology {mode} --json".split(), fixture="zmod4_discrete.rg")
    assert code == 0
    marks = [c["witness"].split()[0] for c in json.loads(out)["clauses"]]
    cert = cert_of(ws_zmod4, "T4", "P4", "G4")
    tops = enumerate_topologies(cert.space.universe, cert.upper)
    want = [f"trg={decide_trg(cert, t, mode)[0].verdict}" for t in tops]
    assert marks == want
    assert len(want) == 355 and {"trg=pass", "trg=fail"} == set(want)


def test_trg_topologies_count_the_trgs_of_z5():
    """The totals of a per-topology `decide_trg` sweep over Z_2..Z_5,
    from the pruned generator alone."""
    certs = [c for n in (2, 3, 4, 5) for c in _cyclic_rough_groups(n)]
    assert len(certs) == 296
    assert sum(len(trg_topologies(c)) for c in certs) == 82703
    assert sum(len(trg_topologies(c, "relative")) for c in certs) == 88978


def test_trg_topologies_pass_each_relation_once(monkeypatch):
    """Over the 203 rough groups of Z_5, the producers require 15,680
    relations in upper mode, of which 9,624 are distinct; the generator
    is handed each distinct one once."""
    handed = []

    def record(universe, carrier, rules=()):
        handed.append(list(rules))
        return ()

    monkeypatch.setattr(roughtop.trg, "enumerate_topologies", record)
    certs = _cyclic_rough_groups(5)
    assert len(certs) == 203
    for cert in certs:
        trg_topologies(cert)
    assert len(handed) == 203
    assert sum(map(len, handed)) == 9624
    assert all(len(set(rules)) == len(rules) for rules in handed)


def test_enumerate_topologies_matches_oracle_on_every_small_carrier():
    u = Universe(tuple("abcdef"))
    checked = 0
    for carrier in range(1 << u.size):
        if carrier.bit_count() <= 4:
            got = [(t.nbhd, t.opens) for t in enumerate_topologies(u, carrier)]
            assert got == [(t.nbhd, t.opens)
                           for t in oracle_enumerate_topologies(u, carrier)]
            checked += 1
    assert checked == 57


def test_is_continuous_matches_oracle_on_every_map_between_3_point_spaces():
    u = Universe(("a", "b", "c"))
    families = list(_topologies_on(u, 0b111))
    tops = [generate_topology(u, 0b111, fam) for fam in families]
    maps = [FiniteMap(u, u, 0b111, 0b111, tuple(enumerate(img)))
            for img in itertools.product(range(3), repeat=3)]
    failures = 0
    for (dom, dom_fam), (cod, cod_fam) in itertools.product(
            zip(tops, families), repeat=2):
        for f in maps:
            got = is_continuous(f, dom, cod)
            assert got == oracle_is_continuous(f, u, dom_fam, u, cod_fam).first_witness()
            failures += got is not None
    assert 0 < failures < len(tops) ** 2 * len(maps)


def _random_family(rng: random.Random, n: int):
    """A topology from a random preorder, sometimes perturbed, or a
    family of arbitrary subsets."""
    carrier = (1 << n) - 1
    if rng.random() < 0.3:
        return carrier, [rng.randrange(1 << n) for _ in range(rng.randint(0, 8))]
    subbasis = [rng.randrange(1 << n) for _ in range(rng.randint(0, 4))]
    fam = list(oracle_generate_opens(carrier, subbasis))
    roll = rng.random()
    if roll < 0.25 and len(fam) > 1:
        fam.remove(rng.choice(fam))
    elif roll < 0.5:
        fam.append(rng.randrange(1 << n))
    return carrier, fam


def test_verify_topology_matches_oracle_on_random_families():
    rng = random.Random(20261018)
    verdicts = set()
    for _ in range(3000):
        n = rng.randint(0, 6)
        u = Universe(tuple(str(i) for i in range(n)))
        carrier, fam = _random_family(rng, n)
        verdicts.add(_check_verify_topology(u, carrier, fam).verdict)
    assert verdicts == {"pass", "fail"}


def _check_verify_topology(u, carrier, fam):
    """verify_topology against the pairwise-scan oracle, whose report
    it returns.  The oracle gives the verdict; on a failure at the empty
    set or the carrier the message is the oracle's witness, and past
    them the one `_walk_witness` names: two members and their union or
    intersection, which is no member.  On a pass the topology has the
    family as its opens, and as its N(p) the intersection of the
    members that hold p, worked out on frozensets."""
    rep = oracle_verify_topology(u, carrier, fam)
    if not rep.passed:
        with pytest.raises(InputError) as err:
            verify_topology(u, carrier, fam)
        if "fail" in (rep.clause("empty-set-member").verdict,
                      rep.clause("carrier-member").verdict):
            why = rep.first_witness()
        else:
            word, a, b, c = _walk_witness(carrier, fam)
            members = {mask_to_set(m) for m in fam}
            assert {a, b} <= members and c not in members, (carrier, fam)
            assert c == (a | b if word == "union" else a & b), (carrier, fam)
            why = (f"{word} of {u.set_str(set_to_mask(a))} and {u.set_str(set_to_mask(b))}"
                   f" = {u.set_str(set_to_mask(c))} is not in the family")
        assert str(err.value) == "family is not a topology: " + why, (carrier, fam)
        return rep
    top = verify_topology(u, carrier, fam)
    assert top.opens == tuple(sorted(set(fam))), (carrier, fam)
    sets = [mask_to_set(m) for m in fam]
    want = [0] * u.size
    for p in mask_to_set(carrier):
        want[p] = set_to_mask(frozenset.intersection(
            mask_to_set(carrier), *[s for s in sets if p in s]))
    assert top.nbhd == tuple(want), (carrier, fam)
    return rep


def _walk_witness(carrier, fam):
    """(word, a, b, a word b) for a family, holding the empty set and
    the carrier, that is no topology, on frozensets.  The opens of the
    family's own N(p) are walked class by class, the classes by
    ascending mask of N; a class joins each open o so far that holds
    the rest of its N, in the order the opens were found.  The first
    such o | N that is no member is named: as the union of o and N when
    N is a member, else as the first intersection that is no member
    when the carrier is cut down, in ascending mask order, by the
    members that hold a point of the class."""
    members = {mask_to_set(m) for m in fam}
    whole = mask_to_set(carrier)
    nbhd = {p: frozenset.intersection(whole, *[s for s in members if p in s])
            for p in whole}
    opens = [frozenset()]
    for n in sorted(set(nbhd.values()), key=set_to_mask):
        points = {p for p in n if nbhd[p] == n}
        grown = [o for o in opens if n - points <= o]
        missing = [o for o in grown if o | n not in members]
        if not missing:
            opens += [o | n for o in grown]
            continue
        if n in members:
            return "union", missing[0], n, missing[0] | n
        acc = whole
        p = min(points)
        for m in sorted((s for s in members if p in s), key=set_to_mask):
            if acc & m not in members:
                return "intersection", acc, m, acc & m
            acc &= m
    raise AssertionError("the family is a topology")


def _families(carrier: int):
    """Every family of subsets of the carrier."""
    subsets = [m for m in range(carrier + 1) if not m & ~carrier]
    for pick in range(1 << len(subsets)):
        yield [m for i, m in enumerate(subsets) if pick >> i & 1]


def test_verify_topology_matches_oracle_on_every_small_family():
    """Every family on every carrier of a 3-point universe, and every
    family on a 4-point carrier of a 5-point universe."""
    u3 = Universe(("a", "b", "c"))
    u5 = Universe(("a", "b", "c", "d", "e"))
    verdicts = Counter()
    for u, carriers in ((u3, range(8)), (u5, (0b10111,))):
        for carrier in carriers:
            for fam in _families(carrier):
                verdicts[_check_verify_topology(u, carrier, fam).verdict] += 1
    # A000798: 1 + 3 * 1 + 3 * 4 + 29 topologies on the carriers of
    # three points, and 355 on four
    assert verdicts == {"pass": 45 + 355, "fail": 318 + 65536 - 45 - 355}


def _lattice_family(sides):
    """The principal down-sets of the product of chains of the given
    lengths, as opens of its 64 points, and the empty set.  The opens
    of the topology they generate number the down-sets of that order:
    7,828,354 (the Dedekind number M(6)) for six chains of 2."""
    points = list(itertools.product(*map(range, sides)))
    u = Universe(tuple("p" + "".join(map(str, x)) for x in points))
    fam = [0] + [sum(1 << j for j, y in enumerate(points)
                     if all(a <= b for a, b in zip(y, x))) for x in points]
    return u, u.all_mask, fam


@pytest.mark.parametrize("sides", [(2,) * 6, (4, 4, 4), (4, 4, 2, 2)])
@pytest.mark.parametrize("unions", [False, True])
def test_verify_topology_fails_far_from_a_topology_by_a_short_walk(sides, unions):
    """A family whose generated topology has far more opens than it has
    members fails by a short walk.  Deciding it counts no opens, and
    the one class walk keeps only members, so it holds at most twice as
    many opens as the family has members."""
    u, carrier, fam = _lattice_family(sides)
    if unions:
        fam = sorted(set(fam) | {a | b for a, b in itertools.combinations(fam, 2)})
    counts, held = [], []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code is topology._count_down_sets.__code__:
            counts.append(event)
        elif event == "return" and frame.f_code is topology._missing_open.__code__:
            held.append(len(frame.f_locals["opens"]) + len(frame.f_locals["new"]))

    sys.setprofile(watch)
    try:
        rep = _check_verify_topology(u, carrier, fam)
    finally:
        sys.setprofile(None)
    assert not rep.passed
    assert rep.clause("union-closure").verdict == "fail"
    assert counts == []
    # the whole walk would list 232,848 (4x4x4) to 7,828,354 (B_6)
    (listed,) = held
    assert listed <= 2 * (len(set(fam)) + 1)


def test_generated_and_product_opens_match_oracle():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 5)
        u = Universe(tuple(str(i) for i in range(n)))
        carrier = (1 << n) - 1
        subbasis = [rng.randrange(1 << n) for _ in range(rng.randint(0, 5))]
        top = generate_topology(u, carrier, subbasis)
        want = oracle_generate_opens(carrier, subbasis)
        assert top.opens == want
        assert top.count_opens() == len(want)
    u = Universe(("a", "b", "c"))
    families = list(_topologies_on(u, 0b111))
    for f1, f2 in itertools.product(families, repeat=2):
        t1, t2 = generate_topology(u, 0b111, f1), generate_topology(u, 0b111, f2)
        prod = product_topology(t1, t2)
        want = oracle_product_opens(f1, 0b111, f2, 0b111, 3)
        assert prod.opens == want
        assert prod.count_opens() == len(want)
        assert t1.count_opens(t2) == len(want)


def test_homogeneity_matches_oracle_on_every_small_topology():
    checked = 0
    for n in range(0, 5):
        u = Universe(tuple(str(i) for i in range(n)))
        carrier = (1 << n) - 1
        space = ApproxSpace(u, Partition.singletons(u))
        for fam in _topologies_on(u, carrier):
            rs = RoughSpace(space, carrier, generate_topology(u, carrier, fam))
            assert is_rough_homogeneous(rs) == oracle_is_rough_homogeneous(u, carrier, fam)
            checked += 1
    assert checked == 1 + 1 + 4 + 29 + 355


def _random_topology(rng: random.Random, n: int) -> tuple[int, ...]:
    """Opens of a random topology on range(n): generated by a random
    subbasis, or the unions of the blocks of a random partition (the
    source of most homogeneous samples)."""
    carrier = (1 << n) - 1
    if rng.random() < 0.3:
        label = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        blocks = [sum(1 << p for p in range(n) if label[p] == b) for b in set(label)]
        return oracle_generate_opens(carrier, blocks)
    return oracle_generate_opens(
        carrier, [rng.randrange(1 << n) for _ in range(rng.randint(0, 6))])


def test_homogeneity_matches_oracle_orbits_on_random_topologies():
    rng = random.Random(20261018)
    verdicts = set()
    for n, samples in ((5, 400), (6, 150)):
        u = Universe(tuple(str(i) for i in range(n)))
        carrier = (1 << n) - 1
        space = ApproxSpace(u, Partition.singletons(u))
        for _ in range(samples):
            fam = _random_topology(rng, n)
            rs = RoughSpace(space, carrier, generate_topology(u, carrier, fam))
            wit = is_rough_homogeneous(rs)
            ok = wit is None
            orbits = oracle_homogeneity_orbits(carrier, fam)
            assert ok == all(o == carrier for o in orbits.values())
            verdicts.add(ok)
            if not ok:
                p, q = wit.removeprefix("no self-homeomorphism carries ").split(" to ")
                assert p == "0"
                assert orbits[0] >> int(q) & 1 == 0
    assert verdicts == {True, False}


def _brute_symmetric_squares(rows, e: int, upper: frozenset, fam, w: frozenset):
    """Opens V of the family, in its order, with e in V, V equal to its
    rough inverse inside the upper approximation, and V*V inside W."""
    out = []
    for v in map(mask_to_set, fam):
        inverse = {y for y in upper for x in v if rows[x][y] == e == rows[y][x]}
        square = {rows[x][y] for x in v for y in v}
        if e in v and inverse == v and square <= w:
            out.append(set_to_mask(v))
    return out


def test_symmetric_square_nbhds_match_brute_force_on_every_zmod3_topology(fixa_trg):
    """Every topology on the upper approximation of the zmod3 fixture and
    every open W holding the identity.  Topologies that make a TRG are
    also run through `enumerate witness` on the command line."""
    group = fixa_trg.group
    u = group.space.universe
    rows, e = group.table.rows, group.designated_e
    source = (FIXDIR / "zmod3.rg").read_text(encoding="utf-8")

    def spelled(mask: int) -> str:
        return " ".join(u.elements[i] for i in sorted(mask_to_set(mask)))

    families = list(_topologies_on(u, group.upper))
    assert len(families) == 29
    cases = found = via_cli = 0
    for fam in families:
        tau = generate_topology(u, group.upper, fam)
        cert = TRGCert(group, tau, subspace_topology(tau, group.g_mask), "upper")
        is_trg = decide_trg(group, tau)[0].passed
        for w in fam:
            if not w >> e & 1:
                continue
            want = _brute_symmetric_squares(
                rows, e, mask_to_set(group.upper), fam, mask_to_set(w))
            assert list(symmetric_square_nbhds(cert, w)) == want, (fam, w)
            assert find_symmetric_square_nbhd(cert, w)[0] == (want[0] if want else None)
            cases += 1
            found += bool(want)
            if not is_trg:
                continue
            opens = " ".join("{" + spelled(o) + "}" for o in fam)
            doc = (source + f"topology tauX on GbarA: {opens}\n"
                   f"subset WX of UA: {spelled(w)}\n")
            code, out, _ = run_cli(
                ("enumerate witness --w WX --table TA --partition PA --group GA "
                 "--topology tauX").split(), stdin=doc)
            assert code == 0
            items = [line.split("witness: ")[1] for line in out.splitlines()
                     if line.startswith("  item-")]
            assert items == [u.set_str(v) for v in want]
            via_cli += 1
    assert 0 < found < cases
    assert via_cli > 0


def _product_opens_and_symmetric_squares(cert):
    """Check one TRG: `product-opens` against the listed opens of the
    built product of tau_G with itself, and, for every open W holding
    the identity, `symmetric_square_nbhds` against a filter that takes
    the rough inverse of each point with `inverses_in`.  Returns the
    number of W tried."""
    report, _ = verify_trg(cert.group, cert.tau)
    assert dict(report.stats)["product-opens"] == len(
        product_topology(cert.tau_G, cert.tau_G).opens)
    table, upper, e = cert.table, cert.upper, cert.e

    def rough_inverse(v: int) -> int:
        acc = 0
        for x in range(upper.bit_length()):
            if v >> x & 1:
                acc |= inverses_in(table, x, upper, e)
        return acc

    tried = 0
    for w in cert.tau.opens:
        if w >> e & 1:
            want = [v for v in cert.tau.opens
                    if v >> e & 1 and rough_inverse(v) == v
                    and set_product(table, v, v) & ~w == 0]
            assert list(symmetric_square_nbhds(cert, w)) == want, (cert.tau.nbhd, w)
            tried += 1
    return tried


def test_trg_tables_match_per_point_scans_on_every_trg_of_z2_to_z4(fixb_trg):
    """Every TRG topology that `trg_topologies` lists for the rough
    groups of Z_2..Z_4 in upper mode, and the S4 fixture (GB, tauB)."""
    trgs = tried = 0
    for n in (2, 3, 4):
        for group in _cyclic_rough_groups(n):
            for tau in trg_topologies(group):
                cert = decide_trg(group, tau)[1]
                tried += _product_opens_and_symmetric_squares(cert)
                trgs += 1
    assert trgs == 2940
    assert tried > trgs
    assert _product_opens_and_symmetric_squares(fixb_trg) > 0


def test_product_opens_of_chains_are_central_binomials():
    """The chain {} {0} {0,1} ... Z_n makes G x G the n x n grid, whose
    down-sets are the C(2n, n) lattice paths; the TRG check fails, but
    the stats are counted all the same."""
    for n in range(2, 7):
        cert = _cyclic_cert(n, (1 << n) - 1, [1 << i for i in range(n)])
        u = cert.space.universe
        tau = generate_topology(u, u.all_mask, [(1 << k) - 1 for k in range(n + 1)])
        report, _ = verify_trg(cert, tau)
        assert dict(report.stats) == {
            "tau-opens": n + 1, "tau-G-opens": n + 1,
            "product-opens": math.comb(2 * n, n)}


def test_product_opens_count_classes_of_several_points():
    """tau_G not T0: on Z_4 the class {0,1} lies below the class {2,3},
    so the pairs of classes form a 2 x 2 grid, with 6 down-sets."""
    cert = _cyclic_cert(4, 0b1111, [0b1, 0b10, 0b100, 0b1000])
    tau = generate_topology(cert.space.universe, 0b1111, [0b11])
    assert tau.classes == ((0b11, 0b11, 0b01), (0b1111, 0b1100, 0b11))
    report, _ = verify_trg(cert, tau)
    want = oracle_product_opens(tau.opens, 0b1111, tau.opens, 0b1111, 4)
    assert len(want) == 6
    assert dict(report.stats) == {"tau-opens": 3, "tau-G-opens": 3, "product-opens": 6}


def test_inverse_map_names_the_only_inverse_on_every_rough_group_of_z2_to_z4(fixb_cert):
    """For every rough group of Z_2..Z_4 and the S4 fixture (GB), each
    member g of G has exactly one inverse in G for the designated
    identity, the one the certificate's inverse map gives."""
    certs = [c for n in (2, 3, 4) for c in _cyclic_rough_groups(n)] + [fixb_cert]
    assert len(certs) == 94
    for cert in certs:
        assert cert.inverse.domain == cert.inverse.codomain == cert.g_mask
        for g in mask_to_set(cert.g_mask):
            assert inverses_in(cert.table, g, cert.g_mask, cert.designated_e) == (
                1 << cert.inverse.apply(g))


def test_rough_kernel_matches_checking_its_kernel_directly(fixb_cert):
    """For every rough group of Z_2..Z_4 and the S4 fixture (GB), and
    every nonempty subset K of G, a map sending exactly K to the
    identity has kernel K, and `rough_kernel` reports on K what
    `verify_rough_subgroup` and then `is_rough_normal` report.  The
    kernel reads only the map, so the map need not be a homomorphism."""
    certs = [c for n in (2, 3, 4) for c in _cyclic_rough_groups(n)] + [fixb_cert]
    verdicts = set()
    for cert in certs:
        u, e, g = cert.space.universe, cert.designated_e, cert.g_mask
        other = next((x for x in mask_to_set(cert.upper) if x != e), e)
        sub = 0
        while sub := (sub - g) & g:
            fmap = FiniteMap(u, u, cert.upper, cert.upper, tuple(
                (x, e if sub >> x & 1 else other) for x in mask_to_set(cert.upper)))
            kernel, krep = rough_kernel(RoughHom(cert, cert, fmap))
            assert kernel == sub
            want = verify_rough_subgroup(cert, sub).as_clause("kernel-subgroup")
            assert krep.clause("kernel-subgroup") == want
            assert krep.clause("kernel-normal") == (
                is_rough_normal(cert, sub).as_clause("kernel-normal") if want.verdict == "pass"
                else premise("kernel-normal", "skipped: kernel is not a rough subgroup"))
            verdicts.add(krep.verdict)
    assert verdicts == {"pass", "fail"}


@pytest.mark.parametrize("side", ["left", "right"])
def test_action_continuity_matches_oracle_on_every_small_topology(side):
    """The `action-continuity` clause against a preimage scan over the
    explicit product topology, for every topology on Z_2 and Z_3 (G the
    whole group) and on a 2- or 3-point X.  Each pair of topologies gets
    the projection onto X, which is continuous, and three seeded maps.
    The clause reads only tau and the map, so one TRG certificate is
    reused with each tau in turn."""
    rng = random.Random(8 if side == "left" else 9)
    verdicts = {"pass": 0, "fail": 0}
    for n, m in itertools.product((2, 3), repeat=2):
        cert0 = _cyclic_trg(n)
        gu = cert0.universe
        xu = Universe(tuple("abc"[:m]))
        xspace = ApproxSpace(xu, Partition.singletons(xu))
        first, second = (gu, xu) if side == "left" else (xu, gu)
        pu = product_universe(first, second)
        dom = product_mask(first.all_mask, second.all_mask, second.size)
        # the X coordinate of each pair index
        x_of = [p % m if side == "left" else p // n for p in range(n * m)]
        for g_fam, x_fam in itertools.product(_topologies_on(gu, gu.all_mask),
                                              _topologies_on(xu, xu.all_mask)):
            cert = TRGCert(cert0.group, generate_topology(gu, gu.all_mask, g_fam),
                           cert0.tau_G, cert0.mode)
            rspace = RoughSpace(xspace, xu.all_mask,
                                generate_topology(xu, xu.all_mask, x_fam))
            f1, f2 = (g_fam, x_fam) if side == "left" else (x_fam, g_fam)
            prod = oracle_product_opens(f1, first.all_mask, f2, second.all_mask,
                                        second.size)
            for images in [x_of] + [[rng.randrange(m) for _ in x_of] for _ in range(3)]:
                mu = FiniteMap(pu, xu, dom, xu.all_mask, tuple(enumerate(images)))
                rep, _ = verify_rough_action(cert, rspace, mu, side)
                want = oracle_is_continuous(mu, pu, prod, xu, x_fam)
                assert rep.clause("action-continuity") == (
                    "action-continuity", want.verdict, want.first_witness()), (
                    g_fam, x_fam, images)
                verdicts[want.verdict] += 1
    # 33 x 33 pairs of topologies: the 1089 projections pass, and so do
    # some seeded maps
    assert verdicts["pass"] > 1089 and verdicts["fail"] > 1089


def _table_cases(rng: random.Random):
    """Tables of 1 to 9 points: uniformly random ones, which are seldom
    associative or closed on a subset, and cyclic ones with one entry
    changed, which fail late in the scan or not at all."""
    for n in range(1, 10):
        u = Universe(tuple(f"e{i}" for i in range(n)))
        for _ in range(30):
            rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            yield CayleyTable(u, tuple(map(tuple, rows)))
            rows = [[(x + y) % n for y in range(n)] for x in range(n)]
            if rng.random() < 0.8:
                rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            yield CayleyTable(u, tuple(map(tuple, rows)))


def _nonempty_mask(rng: random.Random, n: int) -> int:
    return rng.randrange(1, 1 << n)


def test_table_scans_match_the_entry_at_a_time_oracles():
    """Associativity, escape and identity witnesses on random tables
    and subsets, against the scans of every entry in canonical order."""
    rng = random.Random(20261020)
    seen = Counter()
    for table in _table_cases(rng):
        n = table.universe.size
        mask, target = _nonempty_mask(rng, n), _nonempty_mask(rng, n)
        wit = associativity_witness(table, mask)
        assert wit == oracle_associativity_witness(table, mask), (table, mask)
        esc = escape_witness(table, mask, target, "escapes")
        assert esc == oracle_escape_witness(table, mask, target, "escapes")
        ids = _identities(table, target, mask)
        assert ids == oracle_identities(table, target, mask)
        seen.update({"associative": wit is None, "closed": esc is None,
                     "identity": ids != 0})
    assert seen["associative"] > 200 and seen["closed"] > 100 and seen["identity"] > 100
    assert seen["associative"] < 500 and seen["closed"] < 500 and seen["identity"] < 500


def test_compatibility_scan_matches_the_entry_at_a_time_oracle():
    """The compatibility clause and the pair counts of
    `verify_rough_homomorphism`, for random maps between upper
    approximations of random tables.  The scan reads only the tables,
    the upper approximations and the map, so the certificates are
    built directly, without the rough-group axioms."""
    rng = random.Random(1909)
    tables = list(_table_cases(rng))
    passed = 0
    for _ in range(300):
        src, tgt = (rng.choice(tables) for _ in range(2))
        certs = []
        for table in (src, tgt):
            u = table.universe
            upper = _nonempty_mask(rng, u.size)
            space = ApproxSpace(u, Partition.singletons(u), table)
            certs.append(RoughGroupCert(space, upper, upper, None, None))
        s, t = certs
        fmap = FiniteMap(s.space.universe, t.space.universe, s.upper, t.upper, tuple(
            (x, rng.choice(sorted(mask_to_set(t.upper)))) for x in mask_to_set(s.upper)))
        report, _ = verify_rough_homomorphism(s, t, fmap)
        wit, constrained, unconstrained = oracle_compatibility(s, t, fmap)
        assert report.clause("compatibility").witness == wit
        stats = dict(report.stats)
        assert (stats["constrained-pairs"], stats["unconstrained-pairs"]) == (
            constrained, unconstrained)
        passed += wit is None
    assert 20 < passed < 280


def test_table_scans_match_the_oracles_past_256_elements():
    """Z_300 with one entry changed, on subsets whose members and
    products run past index 255."""
    n = 300
    u = Universe(tuple(map(str, range(n))))
    rows = [[(x + y) % n for y in range(n)] for x in range(n)]
    exact = CayleyTable(u, tuple(map(tuple, rows)))
    rows[297][299] = 5
    changed = CayleyTable(u, tuple(map(tuple, rows)))
    rng = random.Random(300)
    mask = sum(1 << x for x in rng.sample(range(250, n), 20)) | 1 << 297 | 1 << 299 | 1
    assert associativity_witness(exact, mask) is None
    wit = associativity_witness(changed, mask)
    assert wit is not None and wit == oracle_associativity_witness(changed, mask)
    for table in (exact, changed):
        for target in (mask, u.all_mask, u.all_mask ^ 1 << 5):
            assert escape_witness(table, mask, target, "escapes") == (
                oracle_escape_witness(table, mask, target, "escapes"))
        assert _identities(table, u.all_mask, mask) == oracle_identities(
            table, u.all_mask, mask)
    assert _identities(exact, u.all_mask, mask) == 1
