"""Continuous actions of topological rough groups on rough sets."""

import pytest

from roughtop import ApproxSpace, Partition, Universe
from roughtop.actions import (
    RoughSpace,
    is_effective,
    is_rough_homogeneous,
    is_transitive,
    verify_rough_action,
)
from roughtop.approx import pair_name, product_mask, product_universe
from roughtop.errors import InputError
from roughtop.groups import CayleyTable, RoughGroupCert, verify_rough_group
from roughtop.topology import FiniteMap, FiniteTopology, generate_topology, is_continuous
from roughtop.trg import TRGCert, verify_trg

from conftest import cert_of, identity_map, space_of


@pytest.fixture(scope="module")
def sa(ws_selfaction):
    """Everything needed from the self-action fixture: space, trg certs
    under the given and the discrete topology, and both action maps."""
    space = space_of(ws_selfaction, "TA", "PA")
    cert = cert_of(ws_selfaction, "TA", "PA", "GA")
    _, tc_disc = verify_trg(cert, ws_selfaction.topologies["tauD"][1])
    _, tc_given = verify_trg(cert, ws_selfaction.topologies["tauA"][1])
    return {
        "ws": ws_selfaction,
        "space": space,
        "u": ws_selfaction.universes["UA"],
        "tc_disc": tc_disc,
        "tc_given": tc_given,
        "mu": ws_selfaction.maps["mu"][2],
        "mut": ws_selfaction.maps["mut"][2],
    }


def test_rough_space_validation(ws_zmod3):
    space = space_of(ws_zmod3, "TA", "PA")
    u = ws_zmod3.universes["UA"]
    tau = ws_zmod3.topologies["tauA"][1]
    rs = RoughSpace(space, ws_zmod3.subsets["GA"][1], tau)
    assert rs.upper_x == u.all_mask
    shrunk = generate_topology(u, u.mask_of(["1", "2"]), (0, u.mask_of(["1", "2"])))
    with pytest.raises(InputError, match=r"carrier is not the upper"):
        RoughSpace(space, ws_zmod3.subsets["GA"][1], shrunk)


def test_self_action_under_discrete_topology(sa):
    rs = RoughSpace(sa["space"], sa["u"].all_mask,
                    sa["ws"].topologies["tauD"][1])
    rep, action = verify_rough_action(sa["tc_disc"], rs, sa["mu"])
    assert rep.verdict == "pass"
    assert [c.name for c in rep.clauses] == [
        "premise-upper-closed", "action-continuity", "compatibility",
        "identity"]
    assert rep.stats == (("compatibility-triples", 27),)
    assert is_effective(action) is None
    assert is_transitive(action) is None


def test_translation_is_a_homeomorphism(sa):
    """x -> g.x of a verified action, for every g of upper(G), is a
    homeomorphism of upper(X)."""
    u = sa["u"]
    rs = RoughSpace(sa["space"], u.all_mask, sa["ws"].topologies["tauD"][1])
    _, action = verify_rough_action(sa["tc_disc"], rs, sa["mu"])
    for g in range(3):
        tmap = FiniteMap(u, u, u.all_mask, u.all_mask,
                         tuple((x, action.act(g, x)) for x in range(3)))
        assert [tmap.apply(x) for x in range(3)] == [(g + x) % 3 for x in range(3)]
        assert tmap.is_bijective()
        assert is_continuous(tmap, rs.tau_x, rs.tau_x) is None
        assert is_continuous(tmap.inverse(), rs.tau_x, rs.tau_x) is None


def test_action_continuity_failure(sa):
    """The addition action is not continuous against the asymmetric
    topology carried by the fixture."""
    rs = RoughSpace(sa["space"], sa["u"].all_mask,
                    sa["ws"].topologies["tauA"][1])
    rep, action = verify_rough_action(sa["tc_given"], rs, sa["mu"])
    assert rep.verdict == "fail"
    assert action is None
    assert rep.clause("action-continuity").witness == (
        "open {1} has preimage {(0,1),(1,0),(2,2)}, which is not open")
    assert rep.clause("compatibility").verdict == "pass"
    assert rep.clause("identity").verdict == "pass"


def test_trivial_action(sa):
    """Projection onto the point factor: continuous and lawful, but neither
    effective nor transitive, with canonical first witnesses."""
    rs = RoughSpace(sa["space"], sa["u"].all_mask,
                    sa["ws"].topologies["tauA"][1])
    rep, action = verify_rough_action(sa["tc_given"], rs, sa["mut"])
    assert rep.verdict == "pass"
    assert is_effective(action) == "0 and 1 act identically on every point"
    assert is_transitive(action) == "no group element carries 0 to 1"


def test_action_shape_errors(sa):
    u = sa["u"]
    rs = RoughSpace(sa["space"], u.all_mask, sa["ws"].topologies["tauD"][1])
    with pytest.raises(InputError, match=r"domain is not upper\(G\) x upper\(X\)"):
        verify_rough_action(sa["tc_disc"], rs, identity_map(u, u.all_mask))
    with pytest.raises(InputError, match=r"unknown action side 'up'"):
        verify_rough_action(sa["tc_disc"], rs, sa["mu"], side="up")


def test_action_right_side(sa):
    """Addition is abelian, so the transposed map acts on the right."""
    u = sa["u"]
    rs = RoughSpace(sa["space"], u.all_mask, sa["ws"].topologies["tauD"][1])
    pu = product_universe(u, u)
    pairs = {}
    for x in range(3):
        for g in range(3):
            name = pair_name(u.elements[x], u.elements[g])
            pairs[pu.index(name)] = (x + g) % 3
    mu_r = FiniteMap(
        pu, u, product_mask(u.all_mask, u.all_mask, 3), u.all_mask, tuple(pairs.items()))
    rep, action = verify_rough_action(sa["tc_disc"], rs, mu_r, side="right")
    assert rep.verdict == "pass"
    assert action.side == "right"


def test_action_premise_not_applicable(sa):
    """A certificate doctored so upper(G) is not closed under the table
    short-circuits to a not-applicable verdict before continuity."""
    u = sa["u"]
    tc = sa["tc_disc"]
    doc_group = RoughGroupCert(tc.group.space, tc.g_mask, u.mask_of(["1", "2"]),
                               tc.e, tc.group.inverse)
    doc = TRGCert(doc_group, tc.tau, tc.tau_G)
    rs = RoughSpace(sa["space"], u.all_mask, sa["ws"].topologies["tauD"][1])
    pu = product_universe(u, u)
    dom = product_mask(doc_group.upper, u.all_mask, u.size)
    pairs = {}
    for g in (1, 2):
        for x in (0, 1, 2):
            name = pair_name(u.elements[g], u.elements[x])
            pairs[pu.index(name)] = (g + x) % 3
    mu = FiniteMap(pu, u, dom, u.all_mask, tuple(pairs.items()))
    rep, action = verify_rough_action(doc, rs, mu)
    assert rep.verdict == "not-applicable"
    assert action is None
    assert rep.clause("premise-upper-closed").witness == (
        "1 * 2 = 0 leaves the upper approximation of G")


def test_monoid_action_passes():
    """Acting by an element with no inverse in sight: the verifier accepts
    the action."""
    u = Universe(("0", "1"))
    table = CayleyTable.from_names(u, [["0", "1"], ["1", "1"]])
    space = ApproxSpace(u, Partition(u, (u.all_mask,)), table)
    _, cert = verify_rough_group(space, 0b01)
    assert u.elements[cert.designated_e] == "0"
    discrete = generate_topology(u, 0b11, (0, 1, 2, 3))
    _, tcert = verify_trg(cert, discrete)
    rs = RoughSpace(space, 0b11, discrete)
    pu = product_universe(u, u)
    pairs = {}
    for a in range(2):
        for b in range(2):
            name = pair_name(u.elements[a], u.elements[b])
            pairs[pu.index(name)] = a | b
    mu = FiniteMap(pu, u, pu.all_mask, 0b11, tuple(pairs.items()))
    rep, action = verify_rough_action(tcert, rs, mu)
    assert rep.verdict == "pass" and action is not None
    assert rep.stats == (("compatibility-triples", 8),)


def test_homogeneity(sa, ws_zmod3):
    u = sa["u"]
    rs_given = RoughSpace(sa["space"], u.all_mask,
                          sa["ws"].topologies["tauA"][1])
    assert is_rough_homogeneous(rs_given) == "no self-homeomorphism carries 0 to 1"
    rs_disc = RoughSpace(sa["space"], u.all_mask,
                         sa["ws"].topologies["tauD"][1])
    assert is_rough_homogeneous(rs_disc) is None


def test_homogeneity_two_points():
    u = Universe(("a", "b"))
    space = ApproxSpace(u, Partition(u, (u.all_mask,)))
    asym = RoughSpace(space, 0b11, generate_topology(u, 0b11, (0, 0b01, 0b11)))
    assert is_rough_homogeneous(asym) == "no self-homeomorphism carries a to b"
    sym = RoughSpace(space, 0b11, generate_topology(u, 0b11, (0, 0b11)))
    assert is_rough_homogeneous(sym) is None


def _space_of_nbhds(nbhd) -> RoughSpace:
    u = Universe(tuple(str(p) for p in range(len(nbhd))))
    carrier = u.all_mask
    return RoughSpace(ApproxSpace(u, Partition(u, (u.all_mask,))), carrier,
                      FiniteTopology(u, carrier, nbhd))


def test_homogeneity_has_no_size_cap():
    # 32 open two-point classes {2k, 2k+1}: homogeneous at 64 points
    pairs = [0b11 << (p & ~1) for p in range(64)]
    assert is_rough_homogeneous(_space_of_nbhds(pairs)) is None
    # the last two points form a chain with 63 below 62: |N(62)| = 2, as
    # for every pair point, so only the closure size of 62 tells it apart
    chain = pairs[:62] + [0b11 << 62, 1 << 63]
    assert is_rough_homogeneous(_space_of_nbhds(chain)) == (
        "no self-homeomorphism carries 0 to 62")
