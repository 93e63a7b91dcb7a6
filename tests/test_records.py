"""Value semantics of the public record types.

Each record is built twice from the same inputs, through independent
parses of a fixture, so equal values never share identity by accident.
"""

import itertools

import pytest

from conftest import FIXDIR
from roughtop import (
    ApproxSpace,
    CayleyTable,
    Clause,
    FiniteMap,
    FiniteTopology,
    Partition,
    RoughAction,
    RoughSpace,
    Universe,
    VerificationReport,
    parse_spec,
    verify_rough_group,
    verify_trg,
)
from roughtop.actions import verify_rough_action
from roughtop.errors import InputError
from roughtop.groups import verify_rough_homomorphism
from roughtop.homs import verify_trg_homomorphism
from roughtop.report import (
    FAIL,
    INFO,
    NOT_APPLICABLE,
    PASS,
    combine,
    exit_code,
    law,
    premise,
)
from roughtop.topology import generate_topology


def build() -> dict:
    """One instance of every public record type, from a fresh parse."""
    ws = parse_spec((FIXDIR / "zmod3_selfaction.rg").read_text(encoding="utf-8"))
    u = ws.universes["UA"]
    _, table = ws.tables["TA"]
    _, part = ws.partitions["PA"]
    space = ApproxSpace(u, part, table)
    _, group = verify_rough_group(space, ws.subsets["GA"][1])
    tau = ws.topologies["tauD"][1]
    trg_report, trg = verify_trg(group, tau)
    neg = ws.maps["neg"][2]
    _, hom = verify_rough_homomorphism(group, group, neg)
    _, trg_hom = verify_trg_homomorphism(trg, trg, neg)
    rspace = RoughSpace(space, u.all_mask, tau)
    _, action = verify_rough_action(trg, rspace, ws.maps["mu"][2])
    records = {
        "Universe": u,
        "Partition": part,
        "ApproxSpace": space,
        "CayleyTable": table,
        "RoughGroupCert": group,
        "RoughHom": hom,
        "FiniteTopology": tau,
        "FiniteMap": neg,
        "TRGCert": trg,
        "TRGHom": trg_hom,
        "RoughSpace": rspace,
        "RoughAction": action,
        "Clause": trg_report.clauses[0],
        "VerificationReport": trg_report,
    }
    assert all(v is not None for v in records.values())
    return records


FIRST, SECOND = build(), build()
NAMES = sorted(FIRST)


def test_every_record_type_is_covered():
    assert len(NAMES) == 14  # the mutable Workspace, a plain class, is below
    assert [type(FIRST[n]).__name__ for n in NAMES] == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_equal_inputs_give_equal_records(name):
    a, b = FIRST[name], SECOND[name]
    assert a is not b
    assert a == b
    assert not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_records_are_read_only(name):
    rec = FIRST[name]
    for attr in ("universe", "nbhd", "verdict", "name", "space", "fresh_attribute"):
        with pytest.raises(AttributeError):
            setattr(rec, attr, None)


def test_records_of_different_values_differ():
    u = FIRST["Universe"]
    assert u != Universe(("0", "1"))
    assert Clause("a", "pass") != Clause("a", "fail")
    assert Partition.singletons(u) != Partition(u, (u.all_mask,))


def test_partition_blocks_are_sorted():
    u = Universe(("a", "b", "c"))
    part = Partition(u, (0b100, 0b011))
    assert part.blocks == (0b011, 0b100)
    assert part == Partition(u, (0b011, 0b100))
    assert hash(part) == hash(Partition(u, (0b011, 0b100)))


def test_finite_map_pairs_are_sorted():
    u = Universe(("a", "b", "c"))
    fmap = FiniteMap(u, u, 0b111, 0b111, ((2, 0), (0, 1), (1, 2)))
    assert fmap.pairs == ((0, 1), (1, 2), (2, 0))
    assert fmap == FiniteMap(u, u, 0b111, 0b111, ((0, 1), (1, 2), (2, 0)))
    assert fmap.apply(2) == 0


def test_report_stats_are_sorted():
    rep = VerificationReport("x", "pass", (), (("b", 2), ("a", 1)))
    assert rep.stats == (("a", 1), ("b", 2))
    assert rep == VerificationReport("x", "pass", (), (("a", 1), ("b", 2)))
    assert VerificationReport("x", "pass").clauses == ()
    assert Clause("a", "pass").witness is None


# every mix of up to three clause verdicts, in every order
VERDICT_MIXES = [mix for n in range(4)
                 for mix in itertools.product((PASS, FAIL, NOT_APPLICABLE, INFO), repeat=n)]


@pytest.mark.parametrize("verdicts", VERDICT_MIXES,
                         ids=lambda mix: "+".join(mix) or "no-clauses")
def test_combine_derives_the_verdict_from_the_clauses(verdicts):
    """Fail beats not-applicable, not-applicable beats pass, info never
    decides, and no clauses means pass."""
    rank = {PASS: 0, NOT_APPLICABLE: 1, FAIL: 2}
    deciding = [v for v in verdicts if v != INFO]
    want = max(deciding, key=rank.__getitem__, default=PASS)
    rep = combine("x", [Clause(f"c{i}", v) for i, v in enumerate(verdicts)])
    assert rep.verdict == want
    assert rep.clauses == tuple(Clause(f"c{i}", v) for i, v in enumerate(verdicts))


def test_premise_helpers():
    assert premise("p", None) == Clause("p", PASS)
    assert premise("p", "why") == Clause("p", NOT_APPLICABLE, "why")
    rep = combine("x", [premise("p", "why")])
    assert rep.clauses == (Clause("p", NOT_APPLICABLE, "why"),)
    assert exit_code(rep) == 2 and rep.first_witness() == "why"
    assert rep.as_clause("sub") == Clause("sub", NOT_APPLICABLE, "why")
    assert combine("y", [Clause("c", PASS)]).as_clause("sub") == Clause("sub", PASS)


def test_law_helper():
    assert law("l", None) == Clause("l", PASS)
    assert law("l", "why") == Clause("l", FAIL, "why")
    rep = combine("x", [premise("p", None), law("l", "why")])
    assert exit_code(rep) == 1 and rep.first_witness() == "why"


def test_topology_from_opens_equals_from_nbhd():
    u = Universe(("a", "b", "c", "d"))
    opens = (0, 0b0001, 0b0011, 0b0100, 0b0101, 0b0111, 0b1111)
    top = generate_topology(u, 0b1111, opens)
    same = FiniteTopology(u, 0b1111, top.nbhd)
    assert top.nbhd == (0b0001, 0b0011, 0b0100, 0b1111)
    assert top == same and hash(top) == hash(same)
    assert same.opens == opens
    assert top.classes == same.classes == (
        (0b0001, 0b0001, 0b0001), (0b0011, 0b0010, 0b0011),
        (0b0100, 0b0100, 0b0100), (0b1111, 0b1000, 0b1111))


def test_validation_messages_are_kept():
    u = Universe(("a", "b"))
    with pytest.raises(InputError, match=r"duplicate element name 'a' in universe"):
        Universe(("a", "a"))
    with pytest.raises(InputError, match=r"partition blocks overlap"):
        Partition(u, (0b01, 0b11))
    with pytest.raises(InputError, match=r"table has 1 rows, expected 2"):
        CayleyTable(u, ((0, 1),))
    with pytest.raises(InputError, match=r"map is not total: missing \{b\}"):
        FiniteMap(u, u, 0b11, 0b11, ((0, 0),))


def test_constructors_derive_private_state():
    part = FIRST["Partition"]
    assert Partition(part.universe, part.blocks[::-1]) == part
    left = FIRST["RoughAction"]
    action = RoughAction(left.cert, left.rspace, left.mu, "right")
    assert action.act(1, 2) == action.mu.apply(2 * 3 + 1)
    tau = FIRST["FiniteTopology"]
    assert FiniteTopology(tau.universe, tau.carrier, tau.nbhd) == tau
    assert FiniteTopology(tau.universe, tau.carrier, [tau.carrier] * 3) != tau


def test_workspace_is_a_mutable_value():
    a = parse_spec((FIXDIR / "zmod3.rg").read_text(encoding="utf-8"))
    b = parse_spec((FIXDIR / "zmod3.rg").read_text(encoding="utf-8"))
    assert a == b
    with pytest.raises(TypeError):
        hash(a)
    b.subsets = {}
    assert a != b
    assert type(a)().universes == {}
